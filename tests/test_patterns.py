"""Pattern DSL parsing and occurrence matching, against a naive matcher."""

import dataclasses
import gc
import random
from collections import Counter
from itertools import combinations, permutations, product
from types import FunctionType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid import patterns
from patavoid.enumerate import (count_tree, iter_avoiders_brute,
                                iter_tree_levels, kept_children, tree_forms)
from patavoid.patterns import (DOWN, EVEN, EXISTS, ODD, UP, BarredPattern,
                               GeneralizedPattern, PatternSyntaxError,
                               SearchForm, always_closed, at_end, avoiders,
                               avoids, parse_pattern, parse_pattern_set)
from patavoid.perms import append_child
from patavoid.rules import CLASS_IDS, REGISTRY, verify_rule


def naive_occurrences(perm, pat):
    """Reference matcher: try every position subset."""
    n, k = len(perm), pat.k
    out = []
    for pos in combinations(range(n), k):
        if any(pat.adjacency[j] and pos[j + 1] != pos[j] + 1
               for j in range(k - 1)):
            continue
        vals = [perm[i] for i in pos]
        if all((vals[a] < vals[b]) == (pat.letters[a] < pat.letters[b])
               for a in range(k) for b in range(a + 1, k)):
            out.append(tuple(i + 1 for i in pos))
    return out


def naive_avoids(perm, pat, occurrences=naive_occurrences):
    """Reference avoidance: a barred pattern's extensions of a reduced
    occurrence are the full occurrences that drop to it.  ``occurrences``
    is ``naive_occurrences`` or a memo of it."""
    if isinstance(pat, GeneralizedPattern):
        return not occurrences(perm, pat)
    full, e = pat.full, pat.barred_index
    # The reduced letters keep their relative order, so no relabeling.
    reduced = SimpleNamespace(
        k=full.k - 1, letters=full.letters[:e] + full.letters[e + 1:],
        adjacency=full.adjacency[1:] if e == 0 else full.adjacency[:-1])
    extensions = Counter(occ[:e] + occ[e + 1:]
                         for occ in occurrences(perm, full))
    for occ in occurrences(perm, reduced):
        count = extensions[occ]
        if pat.mode == "exists" and count == 0:
            return False
        if pat.mode == "odd" and count % 2 == 0:
            return False
        if pat.mode == "even" and count % 2 == 1:
            return False
    return True


def test_parse_render_round_trip():
    for text in ["2-1-3", "12-3", "1-23", "34-21", "2-3-41", "[2]-31",
                 "[2o]-31", "[2e]-31", "1-2-34", "21-[3]", "321"]:
        assert parse_pattern(text).render() == text


def test_parse_classical_and_vincular():
    p = parse_pattern("2-1-3")
    assert isinstance(p, GeneralizedPattern)
    assert p.letters == (2, 1, 3) and p.adjacency == (False, False)
    q = parse_pattern("12-3")
    assert q.adjacency == (True, False)
    r = parse_pattern("321")
    assert r.adjacency == (True, True)


def test_parse_barred():
    p = parse_pattern("[2o]-31")
    assert isinstance(p, BarredPattern)
    assert p.barred_index == 0 and p.mode == "odd"
    assert p.full.letters == (2, 3, 1) and p.full.adjacency == (False, True)
    assert p._reduced.letters == (2, 1) and p._reduced.adjacency == (True,)
    q = parse_pattern("21-[3]")
    assert q.barred_index == 2 and q.mode == "exists"
    assert q._reduced.letters == (2, 1) and q._reduced.adjacency == (True,)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("2-", 1),
    ("2x1", 1),
    ("[2", 2),
    ("[x]", 1),
    ("2-1-5", 4),
    ("2-1-2", 4),
    ("[2]-3[1]", 5),
    ("2-1-3-4-5-6-7-8-9-0", 18),
    ("12,1x", 4),
    ("2-1-3, 3-[1]2", 9),
    ("1-2,", 4),
    ("12,21,3-1-4", 10),
])
def test_syntax_errors_carry_offsets(text, offset):
    # Offsets index the whole text, also past the commas of a pattern set.
    parsers = [parse_pattern_set] if "," in text else [parse_pattern, parse_pattern_set]
    for parse in parsers:
        with pytest.raises(PatternSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset


def test_barred_structural_errors():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("3-[1]-2")  # barred letter in the middle
    with pytest.raises(PatternSyntaxError):
        parse_pattern("[2]31")  # barred letter not dash-separated
    # Built directly, a pattern checks its own fields.
    for letters in ((), (1, 3), (2, 2)):
        with pytest.raises(ValueError, match="permutation of 1..k"):
            GeneralizedPattern(letters, (False,) * max(len(letters) - 1, 0))
    with pytest.raises(ValueError, match="length k-1"):
        GeneralizedPattern((2, 1, 3), (False,))
    with pytest.raises(ValueError, match="at least two letters"):
        BarredPattern(GeneralizedPattern((1,), ()), 0, EXISTS)
    with pytest.raises(ValueError, match="unknown mode 'some'"):
        BarredPattern(GeneralizedPattern((2, 3, 1), (False, True)), 0, "some")


def test_parse_pattern_set():
    pats = parse_pattern_set("2-1-3, [2]-31")
    assert len(pats) == 2
    assert pats[0].render() == "2-1-3" and pats[1].render() == "[2]-31"


def test_avoids_hand_examples():
    assert not avoids((2, 1, 3), parse_pattern_set("2-1-3"))
    assert not avoids((1, 3, 2, 4), parse_pattern_set("12-3"))
    assert avoids((2, 3, 1), parse_pattern_set("12-3"))  # no larger entry after 23
    assert avoids((3, 2, 1), parse_pattern_set("1-2-3"))
    assert not avoids((2, 4, 1, 3), parse_pattern_set("2-4-1-3"))
    # Any distinct integers, not only 1..n: no bound is taken from n.
    assert not avoids((5, 7, 6), parse_pattern_set("1-3-2"))
    assert not avoids((-4, 9, 0), parse_pattern_set("1-3-2"))
    assert avoids((-4, 0, 9), parse_pattern_set("1-3-2"))


def test_empty_extension_count_is_even():
    # Zero extensions satisfies the even mode, so a permutation whose
    # reduced occurrences all lack extensions avoids the [2e] form.
    pat = parse_pattern("[2e]-31")
    assert avoids((3, 1, 2), pats=(pat,))
    assert not avoids((2, 3, 1), pats=(pat,))  # one extension, odd


def test_dashed_and_adjacent_form_agree():
    # Avoiding 2-1-3 is the same as avoiding 2-13: any dashed occurrence
    # can be contracted to one with the last two entries adjacent.
    dashed = parse_pattern_set("2-1-3")
    glued = parse_pattern_set("2-13")
    for n in range(1, 8):
        a = {p for p in permutations(range(1, n + 1)) if avoids(p, dashed)}
        b = {p for p in permutations(range(1, n + 1)) if avoids(p, glued)}
        assert a == b


def _pattern_text(letters, glued, bar=None, mode=""):
    """DSL text of one pattern; ``bar`` is None, "first" or "last"."""
    out = [str(letters[0])]
    for g, x in zip(glued, letters[1:]):
        out.append(("" if g else "-") + str(x))
    if bar == "first":
        out[0] = f"[{letters[0]}{mode}]"
    elif bar == "last":
        out[-1] = f"-[{letters[-1]}{mode}]"
    return "".join(out)


def _single_patterns(kmax):
    """Every vincular pattern of length 1..kmax, and every pattern barred at
    either end, in all three modes."""
    for k in range(1, kmax + 1):
        for letters in permutations(range(1, k + 1)):
            for glued in product((False, True), repeat=k - 1):
                yield _pattern_text(letters, glued)
                for mode in ("", "o", "e"):
                    if k >= 2 and not glued[0]:
                        yield _pattern_text(letters, glued, "first", mode)
                    if k >= 2 and not glued[-1]:
                        yield _pattern_text(letters, glued, "last", mode)


def _anchored_mismatches(pats, nmax):
    """Children of length <= nmax, of every avoiding parent, on which the
    anchored forms and the full check disagree."""
    items = at_end(pats)
    bad = []
    for n in range(nmax):
        for parent in permutations(range(1, n + 1)):
            if avoids(parent, pats):
                for v in range(1, n + 2):
                    child = append_child(parent, v)
                    if avoids(child, items) != avoids(child, pats):
                        bad.append(child)
    return bad


def test_anchored_items_decide_every_single_pattern():
    # The 42 bar-last patterns have no anchored form: no tree prunes by one.
    texts = list(_single_patterns(3))
    assert len(set(texts)) == len(texts) == 113
    closed = [text for text in texts if always_closed(parse_pattern(text))]
    assert len(closed) == 71
    for text in closed:
        assert _anchored_mismatches(parse_pattern_set(text), 6) == [], text
    for text in set(texts) - set(closed):
        with pytest.raises(ValueError, match="bar last"):
            at_end(parse_pattern_set(text))


def test_a_bar_last_pattern_refuses_every_at_end():
    # The refusal is no first-use check: a second request, of the pattern
    # alone or in a set with a closed member, is refused as the first was.
    pat = parse_pattern("13-[2]")
    for pats in ((pat,), (pat,), (parse_pattern("2-1-3"), pat)):
        with pytest.raises(ValueError, match="13-\\[2\\] has its bar last"):
            at_end(pats)


@st.composite
def _pattern_texts(draw, kmin=1, bars=(None, "first", "last")):
    k = draw(st.integers(kmin, 5))
    letters = draw(st.permutations(list(range(1, k + 1))))
    glued = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    bar = draw(st.sampled_from(bars)) if k >= 2 else None
    if bar is not None:
        glued[0 if bar == "first" else -1] = False
    return _pattern_text(letters, glued, bar, draw(st.sampled_from(["", "o", "e"])))


# Sets of patterns that are always closed, the only ones at_end compiles.
_closed_sets = st.lists(_pattern_texts(bars=(None, "first")), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_closed_sets)
def test_anchored_items_decide_random_sets(texts):
    pats = parse_pattern_set(",".join(texts))
    assert _anchored_mismatches(pats, 6) == []


_PERMS_TO_6 = [p for n in range(7) for p in permutations(range(1, n + 1))]


@settings(max_examples=100, deadline=None)
@given(_closed_sets)
def test_doubled_buffer_children_match_built_children(texts):
    # The tree tests the child that appends v as the integer list
    # [2x for x in perm] + [2v - 1]: doubling keeps the parent's order and
    # 2v - 1 lies between 2(v - 1) and 2v, and the kernels only compare
    # entries, so it is the child append_child builds.
    pats = parse_pattern_set(",".join(texts))
    forms = at_end(pats)
    for perm in (p for p in _PERMS_TO_6 if len(p) <= 5):
        built = [append_child(perm, v) for v in range(1, len(perm) + 2)]
        for v, child in enumerate(built, start=1):
            test = [2 * x for x in perm] + [2 * v - 1]
            assert avoids(test, forms) == avoids(child, forms), (perm, v)
        if avoids(perm, pats):
            assert kept_children(perm, tree_forms(pats)) == [
                c for c in built if avoids(c, pats)], perm


def test_members_ending_on_their_largest_or_smallest_letter_keep_a_prefix_or_suffix():
    # For a vincular pattern whose last letter is k, the values v whose
    # child contains it are an up-set of 1..n+1 over every avoiding parent
    # (a down-set when the last letter is 1), so kept_children bisects
    # them.  Every bar-first form, and every form whose last letter lies
    # strictly inside, is tested per candidate.
    monotone = 0
    for text in _single_patterns(4):
        pat = parse_pattern(text)
        vincular = isinstance(pat, GeneralizedPattern)
        if not always_closed(pat) or (vincular and pat.k < 2):
            continue
        form, = at_end((pat,))
        cutoff = {pat.k: UP, 1: DOWN}.get(pat.letters[-1]) if vincular else None
        assert form.cutoff == cutoff, text
        assert tree_forms((pat,)) == tuple(
            (form,) if c == cutoff else () for c in (UP, DOWN, None)), text
        if cutoff is None:
            continue
        monotone += 1
        for parent in _PERMS_TO_6:
            if not avoids(parent, (pat,)):
                continue
            top = len(parent) + 1
            rejected = [v for v in range(1, top + 1)
                        if not avoids(append_child(parent, v), (pat,))]
            if rejected:
                assert rejected == (list(range(rejected[0], top + 1)) if cutoff == UP
                                    else list(range(1, rejected[-1] + 1))), (text, parent)
    assert monotone == 116


def _memo_occurrences():
    """``naive_occurrences`` memoised on (perm, letters, adjacency), so the
    three modes of a barred pattern share one search of its full pattern
    and one of its reduced pattern."""
    memo = {}

    def occurrences(perm, pat):
        key = (perm, pat.letters, pat.adjacency)
        if key not in memo:
            memo[key] = naive_occurrences(perm, pat)
        return memo[key]

    return occurrences


def test_avoids_matches_naive_for_every_single_pattern():
    occurrences = _memo_occurrences()
    for text in _single_patterns(3):
        pat = parse_pattern(text)
        for perm in _PERMS_TO_6:
            assert avoids(perm, (pat,)) == naive_avoids(perm, pat, occurrences), (text, perm)


@settings(max_examples=60, deadline=None)
@given(_pattern_texts(kmin=4))
def test_avoids_matches_naive_for_random_patterns(text):
    pat = parse_pattern(text)
    for perm in _PERMS_TO_6:
        assert avoids(perm, (pat,)) == naive_avoids(perm, pat), perm


def _plan(form):
    """Each block of ``form`` in placement order, as its letter indices and
    whether its loop ends after the first placement."""
    return [(tuple(j for j, _, _ in letters), once)
            for letters, _, _, once in form.blocks]


@pytest.mark.parametrize("text, full, anchored", [
    # The 1 of 2-1-3 bounds no later letter; anchored, it is bounded by
    # the 2, which the pinned 3 bounds.
    ("2-1-3", [((0,), False), ((1,), True), ((2,), False)],
     [((0,), False), ((1,), False)]),
    ("1-23", [((1, 2), False), ((0,), False)], [((0,), False)]),
    ("1-2-34", [((2, 3), False), ((0,), False), ((1,), False)],
     [((0,), False), ((1,), False)]),
    # A tie goes to the leftmost block, so the order stays.
    ("12-34", [((0, 1), False), ((2, 3), False)], [((0, 1), False)]),
    # The 1 bounds no later letter: the 4 is bounded by the 3 of the lead.
    ("1-23-4", [((1, 2), False), ((0,), True), ((3,), False)],
     [((0,), False), ((1, 2), False)]),
    # Barred forms go left to right.  The first block of a bar-first form
    # and the last of a bar-last one give the bar its slot, and the 2 of
    # [1]-2-3 bounds the bar; its 3 is read by nothing after it.
    ("[2]-31", [((0, 1), False)], []),
    ("21-[3]", [((0, 1), False)], None),
    ("[1]-2-3", [((0,), False), ((1,), True)], [((0,), False)]),
])
def test_kernel_plan(text, full, anchored):
    pat = parse_pattern(text)
    assert _plan(pat._form) == full
    if anchored is None:
        assert not always_closed(pat)
    else:
        assert _plan(at_end((pat,))[0]) == anchored


@pytest.mark.parametrize("text, scan", [
    ("2-1-3", "for x in p[i1 + 1:]:\n    if v0 < x:"),
    ("1-23", "for x in p[:i1]:\n   if x < v1:"),
    ("1-2-34", "for x in p[i0 + 1:i2]:\n    if v0 < x < v2:"),
    ("1", "if 0 < n:"),
])
def test_last_single_letter_is_a_slice_scan(text, scan):
    assert scan in patterns._kernel_source(parse_pattern(text)._form)


def test_avoids_matches_naive_where_the_plan_is_not_left_to_right():
    # Every pattern of length 4 whose full form leads with a later block or
    # ends a loop after its first placement, on permutations of length 8,
    # where a block has room for more placements than at length 6.
    rng = random.Random(8)
    perms = [tuple(rng.sample(range(1, 9), 8)) for _ in range(100)]
    occurrences = _memo_occurrences()
    checked = 0
    for text in _single_patterns(4):
        pat = parse_pattern(text)
        plan = _plan(pat._form)
        if sum(map(str.isdigit, text)) < 4 or (
                plan[0][0][0] == 0 and not any(once for _, once in plan)):
            continue
        checked += 1
        for perm in perms:
            assert avoids(perm, (pat,)) == naive_avoids(perm, pat, occurrences), (text, perm)
    assert checked == 208


def _kind(pat):
    if isinstance(pat, GeneralizedPattern):
        return "vincular"
    return ("first" if pat.barred_index == 0 else "last", pat.mode)


def test_avoiders_match_the_per_permutation_check():
    # Seeded sets of one to three patterns of every kind, half of them
    # listed longest first: avoiders filters the shortest member first,
    # and must keep both the avoiders and their lexicographic order.
    rng = random.Random(28)
    by_length = {}
    for text in _single_patterns(4):
        by_length.setdefault(sum(map(str.isdigit, text)), []).append(text)
    kinds, longest_first = set(), 0
    for _ in range(200):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            lengths.sort(reverse=True)
        longest_first += lengths[0] > lengths[-1]
        members = [rng.choice(by_length[k]) for k in lengths]
        pats = parse_pattern_set(",".join(members))
        kinds.update(map(_kind, pats))
        for n in range(7):
            assert list(avoiders(permutations(range(1, n + 1)), pats)) == [
                p for p in permutations(range(1, n + 1)) if avoids(p, pats)], (members, n)
    assert kinds == {"vincular", *product(("first", "last"), (EXISTS, ODD, EVEN))}
    assert longest_first >= 50


def test_avoiders_keep_the_input_order():
    perms = list(_PERMS_TO_6)
    random.Random(6).shuffle(perms)
    pats = parse_pattern_set("12-3-[4e],1-23,[2o]-31")
    kept = list(avoiders(perms, pats))
    assert kept == [p for p in perms if avoids(p, pats)]
    assert 0 < len(kept) < len(perms)
    assert list(avoiders(perms, ())) == perms


def test_at_end_lists_its_forms_in_avoiders_member_order(monkeypatch):
    # avoiders filters by the members in the order of their full kernels'
    # first calls on one permutation; at_end lists the members' anchored
    # forms in that same order: shortest full length first ([2e]-31 counts
    # its bar), ties in set order.
    pats = parse_pattern_set("1-2-34,[2e]-31,12-3,2-1-3")
    order = []
    for pat in pats:
        kernel = pat._form.kernel
        monkeypatch.setattr(pat._form, "kernel",
                            lambda p, pat=pat, kernel=kernel: order.append(pat) or kernel(p))
    assert list(avoiders([(1,)], pats)) == [(1,)]
    assert order == [pats[1], pats[2], pats[3], pats[0]]
    assert at_end(pats) == tuple(at_end((pat,))[0] for pat in order)


@pytest.mark.parametrize("cid", ["C3", "C7", "C8", "C10"])
def test_member_order_changes_no_tree_level_or_rule_report(cid):
    # Reversed, C3 and C10 tie-break their members the other way, and C7
    # and C8 list 2-1-3 first as at_end does: the levels, their order and
    # the rule report stay the same.
    spec = REGISTRY[cid]
    flipped = dataclasses.replace(spec, patterns=spec.patterns[::-1])
    assert list(iter_tree_levels(flipped.patterns, 8)) == list(iter_tree_levels(spec.patterns, 8))
    assert count_tree(flipped.patterns, 8) == count_tree(spec.patterns, 8)
    assert verify_rule(flipped, 8) == verify_rule(spec, 8)
    assert verify_rule(spec, 8).ok


def _live_forms_and_kernels():
    objs = gc.get_objects()
    return (sum(isinstance(obj, SearchForm) for obj in objs),
            sum(isinstance(obj, FunctionType) and obj.__globals__ is patterns._KERNEL_GLOBALS
                for obj in objs))


def test_matching_leaves_no_cyclic_garbage():
    # A pattern keeps the anchored forms its first tree walk builds, with
    # their kernels; a set parsed afresh builds its own and drops them with
    # the set.  So after one warm-up walk per class the live forms and
    # kernels may not grow, and no walk leaves cyclic garbage.
    gc.collect()
    gc.disable()
    try:
        for spec in REGISTRY.values():
            for n in range(1, 6):
                for perm in permutations(range(1, n + 1)):
                    avoids(perm, spec.patterns)
            count_tree(spec.patterns, 6)
        assert gc.collect() == 0
        live = _live_forms_and_kernels()
        for _ in range(3):
            for spec in REGISTRY.values():
                count_tree(spec.patterns, 5)
            count_tree(parse_pattern_set("12-[3o],2-1-3"), 5)
        assert gc.collect() == 0
        assert _live_forms_and_kernels() == live
    finally:
        gc.enable()


def _count_kernel_sources(monkeypatch):
    """A list that gets one entry for each kernel source generated."""
    generated = []
    source = patterns._kernel_source
    monkeypatch.setattr(patterns, "_kernel_source",
                        lambda form: generated.append(form) or source(form))
    return generated


def test_a_second_tree_walk_compiles_no_kernel(monkeypatch):
    pats = REGISTRY["C2"].patterns
    count_tree(pats, 6)
    generated = _count_kernel_sources(monkeypatch)
    count_tree(pats, 6)
    assert generated == []
    assert all(a is b for a, b in zip(at_end(pats), at_end(pats), strict=True))


def test_parsing_compiles_no_kernel(monkeypatch):
    # A pattern builds its forms on first use: parsing the 12 class sets
    # and a barred one generates no kernel source, and a first search
    # builds the full forms alone.
    generated = _count_kernel_sources(monkeypatch)
    texts = [",".join(p.render() for p in REGISTRY[cid].patterns) for cid in CLASS_IDS]
    sets = [parse_pattern_set(text) for text in [*texts, "[2o]-31"]]
    assert generated == []
    pats = sets[-1]
    assert avoids((2, 3, 1), pats)
    assert generated == [pats[0]._form]
    at_end(pats)
    assert generated == [pats[0]._form, pats[0]._anchored]


def _reference_levels(pats, nmax):
    level, out = [()], []
    for n in range(nmax):
        level = [child for perm in level for child in
                 (append_child(perm, v) for v in range(1, n + 2))
                 if avoids(child, pats)]
        out.append(level)
    return out


@pytest.mark.parametrize("text", ["13-[2]", "12-[3o]", "1-3-[2e]", *CLASS_IDS])
def test_tree_levels_match_the_full_check(text):
    # A class's tree grows in the reference's order.  The other three have
    # their bar last (13-[2] and 1-3-[2e] are not closed), so the tree
    # grows without them and filters each level: it holds the brute-force
    # avoiders, in another order.
    if text in REGISTRY:
        pats = REGISTRY[text].patterns
        assert list(iter_tree_levels(pats, 7)) == _reference_levels(pats, 7)
    else:
        pats = parse_pattern_set(text)
        assert [sorted(level) for level in iter_tree_levels(pats, 7)] == [
            list(iter_avoiders_brute(pats, n)) for n in range(1, 8)]


@settings(max_examples=100, deadline=None)
@given(st.lists(_pattern_texts(), min_size=1, max_size=3))
def test_tree_levels_are_the_avoiders_of_every_set(texts):
    pats = parse_pattern_set(",".join(texts))
    assert [sorted(level) for level in iter_tree_levels(pats, 6)] == [
        list(iter_avoiders_brute(pats, n)) for n in range(1, 7)]
