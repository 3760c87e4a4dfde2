"""Lattice-path bijections: worked examples, round trips, image sets."""

import inspect
import random
import re
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid import bijections as B
from patavoid.closed_forms import formula_value
from patavoid.enumerate import iter_tree_levels
from patavoid.patterns import avoids, parse_pattern_set
from patavoid.perms import parse_perm

P213 = parse_pattern_set("2-1-3")
P_BAR = parse_pattern_set("2-1-3,[2]-31")
P_GLUED = parse_pattern_set("2-1-3,12-3")
P_ODD = parse_pattern_set("2-1-3,[2o]-31")


def avoiders(pats, n):
    return [p for p in permutations(range(1, n + 1)) if avoids(p, pats)]


def test_path_kinds():
    assert B.path_is("UUDD", "dyck")
    assert not B.path_is("UDDU", "dyck")
    assert not B.path_is("UDX", "dyck")
    assert B.path_is("UHDUD", "motzkin")
    assert not B.path_is("UHD", "dyck")
    assert B.path_is("UUDDUD", "udu_free")
    assert not B.path_is("UDUD", "udu_free")
    assert B.path_is("UUDDUD", "uuu_free")
    assert not B.path_is("UUUDDD", "uuu_free")
    assert B.path_is("EEENENEEEN", "subdiagonal")
    assert not B.path_is("ENE", "subdiagonal")  # rises above y = x/2
    assert not B.path_is("EEE", "subdiagonal")  # stops short of y = x // 2
    with pytest.raises(ValueError):
        B.path_is("UD", "nope")
    with pytest.raises(ValueError):
        B.path_is("UD", "ddd_free")


FAMILIES = {  # kind: (steps in generation order, generator, length for n)
    "dyck": ("DU", B.dyck_paths, lambda n: 2 * n),
    "motzkin": ("DHU", B.motzkin_paths, lambda n: n),
    "subdiagonal": ("EN", B.subdiagonal_paths, lambda n: n + n // 2),
}


@pytest.mark.parametrize("kind", FAMILIES)
def test_generators_yield_the_members(kind):
    # a generator yields exactly the words over its steps that path_is
    # accepts, in step order; lengths it never produces have no members
    steps, paths, length = FAMILIES[kind]
    by_length = {length(n): list(paths(n)) for n in range(11) if length(n) <= 10}
    for size in range(11):
        members = ["".join(w) for w in product(steps, repeat=size)
                   if B.path_is("".join(w), kind)]
        assert by_length.get(size, []) == members, size


def test_generators_have_known_sizes():
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(6):
        assert len(list(B.dyck_paths(n))) == catalan[n]
        assert len(list(B.motzkin_paths(n))) == formula_value("motzkin", n)
    for n, count in enumerate([1, 1, 1, 2, 3, 7, 12, 30], start=0):
        if n:
            assert len(list(B.subdiagonal_paths(n))) == count, n


def test_generators_walk_long_paths_without_recursion():
    # One explicit stack: the first path of a length far past the
    # recursion limit comes at once, from a generator.
    assert next(B.dyck_paths(5000)) == "UD" * 5000
    assert next(B.motzkin_paths(5000)) == "H" * 5000
    assert B.path_is(next(B.subdiagonal_paths(5000)), "subdiagonal")
    for paths in (B.dyck_paths, B.motzkin_paths, B.subdiagonal_paths):
        assert inspect.isgenerator(paths(5000))


def test_phi_examples():
    assert B.phi(parse_perm("4675123")) == "UUUDDUDDUUUDDD"
    assert B.phi((1,)) == "UD"
    assert B.phi_inverse("UUUDDUDDUUUDDD") == parse_perm("4675123")
    assert B.phi_inverse("UUDUDDUDUD") == parse_perm("35421")
    with pytest.raises(ValueError):
        B.phi((1, 3, 2, 4))  # 3, 2, 4 forms a 2-1-3 occurrence
    with pytest.raises(ValueError):
        B.phi_inverse("UDU")


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_bijective_onto_dyck(n):
    perms = avoiders(P213, n)
    images = set()
    for p in perms:
        d = B.phi(p)
        assert B.path_is(d, "dyck") and len(d) == 2 * n
        assert B.phi_inverse(d) == p
        images.add(d)
    assert images == set(B.dyck_paths(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_characterizations(n):
    # the barred companion pattern corresponds to UDU factors, the glued
    # ascent companion to UUU factors
    for p in avoiders(P213, n):
        d = B.phi(p)
        assert ("UDU" not in d) == avoids(p, P_BAR)
        assert ("UUU" not in d) == avoids(p, P_GLUED)


def test_callan_examples():
    assert B.callan("UUDD") == "H"
    assert B.callan("UUDDUD") == "UD"
    assert B.callan("UUUDDD") == "HH"
    assert B.callan("UD") == ""
    assert B.callan_inverse("") == "UD"
    with pytest.raises(ValueError):
        B.callan("UDUD")
    with pytest.raises(ValueError):
        B.callan("")  # semilength 0 is outside the domain; "UD" maps to ""
    with pytest.raises(ValueError):
        B.callan_inverse("UDD")


@pytest.mark.parametrize("n", range(1, 10))
def test_callan_bijective(n):
    domain = [d for d in B.dyck_paths(n) if "UDU" not in d]
    motzkin = set(B.motzkin_paths(n - 1))
    images = set()
    for d in domain:
        m = B.callan(d)
        assert B.callan_inverse(m) == d
        images.add(m)
    assert images == motzkin
    for m in motzkin:
        assert B.callan(B.callan_inverse(m)) == m


def _paper_match(tokens):
    """D index -> matching U index (unmatched Ds absent)."""
    stack = []
    match = {}
    for i, t in enumerate(tokens):
        if t == "U":
            stack.append(i)
        elif t == "D" and stack:
            match[i] = stack.pop()
    return match


def paper_callan(path):
    """The paper's construction, step by step: append a down step, delete
    the down steps flanked by down steps and make their matching up steps
    level, replace each UDD by D, drop the appended step."""
    tokens = list(path) + ["D"]
    match = _paper_match(tokens)
    marked = {i for i in range(1, len(tokens) - 1)
              if tokens[i - 1] == tokens[i] == tokens[i + 1] == "D"}
    kept = []
    for i, t in enumerate(tokens):
        if i in marked:
            continue
        if t == "U" and any(match.get(j) == i for j in marked):
            kept.append("H")
        else:
            kept.append(t)
    out = []
    i = 0
    while i < len(kept):
        if kept[i : i + 3] == ["U", "D", "D"]:
            out.append("D")
            i += 3
        else:
            out.append(kept[i])
            i += 1
    assert out and out[-1] == "D"
    return "".join(out[:-1])


def paper_udu_uuu(path):
    """The paper's construction: pull the down steps flanked by down steps,
    and the last step when it follows a down step, back next to their
    matching up steps, delete the rightmost UD, read backwards with the
    step letters exchanged."""
    tokens = list(path)
    n2 = len(tokens)
    match = _paper_match(tokens)
    marked = set()
    for i in range(n2):
        if tokens[i] != "D":
            continue
        inner = 0 < i < n2 - 1 and tokens[i - 1] == "D" and tokens[i + 1] == "D"
        last = i == n2 - 1 and i > 0 and tokens[i - 1] == "D"
        if inner or last:
            marked.add(i)
    keyed = [((match[i], 1) if i in marked else (i, 0), tokens[i])
             for i in range(n2)]
    keyed.sort(key=lambda kv: kv[0])
    moved = [t for _, t in keyed]
    cut = "".join(moved).rfind("UD")
    assert cut >= 0
    del moved[cut : cut + 2]
    return "".join("U" if t == "D" else "D" for t in reversed(moved))


@pytest.mark.parametrize("n", range(1, 11))
def test_maps_follow_the_paper_construction(n):
    # round trips and image sets hold for any consistent pair of bijections;
    # this pins the scans to the paper's step-by-step construction
    for d in B.dyck_paths(n):
        if "UDU" not in d:
            assert B.callan(d) == paper_callan(d), d
            assert B.udu_uuu(d) == paper_udu_uuu(d), d


def test_long_paths_take_no_recursion():
    level = "H" * 5000
    dyck = B.callan_inverse(level)
    assert len(dyck) == 10_002
    assert B.callan(dyck) == level
    flat = "UD" * 5000
    assert B.udu_uuu(B.udu_uuu_inverse(flat)) == flat


def test_long_dyck_path_decodes_in_linear_time():
    start = time.perf_counter()
    assert B.phi_inverse("U" * 10000 + "D" * 10000) == tuple(range(1, 10001))
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"phi_inverse of U^10000 D^10000 took {elapsed:.2f}s"


def test_udu_uuu_examples():
    assert B.udu_uuu("UUUUDDUUDDDDUUDD") == "UDUUDUDUUDDUDD"
    assert B.udu_uuu("UD") == ""
    assert B.udu_uuu_inverse("UDUUDUDUUDDUDD") == "UUUUDDUUDDDDUUDD"
    assert B.udu_uuu_inverse("") == "UD"
    with pytest.raises(ValueError):
        B.udu_uuu("UDUD")
    with pytest.raises(ValueError):
        B.udu_uuu_inverse("UUUDDD")


@pytest.mark.parametrize("n", range(1, 10))
def test_udu_uuu_bijective(n):
    domain = [d for d in B.dyck_paths(n) if "UDU" not in d]
    codomain = set(d for d in B.dyck_paths(n - 1) if "UUU" not in d)
    images = set()
    for d in domain:
        out = B.udu_uuu(d)
        assert B.udu_uuu_inverse(out) == d
        images.add(out)
    assert images == codomain
    for m in codomain:
        assert B.udu_uuu(B.udu_uuu_inverse(m)) == m


@pytest.mark.parametrize("n", range(1, 9))
def test_chained_motzkin_witness(n):
    # composing the maps carries the doubly restricted avoiders onto the
    # Motzkin paths one step shorter, witnessing their counting sequence
    perms = avoiders(P_BAR, n)
    images = sorted(B.callan(B.phi(p)) for p in perms)
    assert images == sorted(B.motzkin_paths(n - 1))


def test_subdiag_examples():
    assert B.subdiag(parse_perm("4675123")) == "EEENENEEEN"
    assert B.subdiag((1,)) == "E"
    assert B.subdiag_inverse("EEENENEEEN") == parse_perm("4675123")
    assert B.subdiag_inverse("E") == (1,)
    with pytest.raises(ValueError):
        B.subdiag((1, 3, 2))  # the descent (3, 2) has no extension: even count
    with pytest.raises(ValueError):
        B.subdiag_inverse("NE")


@pytest.mark.parametrize("n", range(1, 9))
def test_subdiag_bijective(n):
    perms = avoiders(P_ODD, n)
    images = set()
    for p in perms:
        path = B.subdiag(p)
        assert B.path_is(path, "subdiagonal")
        assert B.subdiag_inverse(path) == p
        images.add(path)
    assert images == set(B.subdiagonal_paths(n))


def test_every_subdiagonal_path_decodes_to_a_213_avoider():
    # subdiag_inverse checks its decoded permutation against [2o]-31 alone,
    # because the decoder builds a 2-1-3 avoider from every path.
    for n in range(1, 13):
        for path in B.subdiagonal_paths(n):
            perm = B._decode(path, "E", "N", 2)
            assert sorted(perm) == list(range(1, n + 1)), path
            assert avoids(perm, P213), path


def right_to_left_maxima(perm):
    """(position, value) pairs, 1-based, of entries exceeding all to their right."""
    out = []
    best = 0
    for i in range(len(perm) - 1, -1, -1):
        if perm[i] > best:
            best = perm[i]
            out.append((i + 1, perm[i]))
    out.reverse()
    return out


def test_right_to_left_maxima():
    assert right_to_left_maxima(parse_perm("4675123")) == [(3, 7), (4, 5), (7, 3)]
    assert right_to_left_maxima((1,)) == [(1, 1)]
    assert right_to_left_maxima((3, 2, 1)) == [(1, 3), (2, 2), (3, 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple))
def test_right_to_left_maxima_properties(perm):
    maxima = right_to_left_maxima(perm)
    values = [v for _, v in maxima]
    assert values[0] == len(perm)  # the maximum entry always qualifies
    assert values == sorted(values, reverse=True)
    assert maxima[-1][0] == len(perm)  # the last entry always qualifies
    for pos, val in maxima:
        assert perm[pos - 1] == val
        assert all(x < val for x in perm[pos:])


# The run codec as first written, the oracle for the one-scan codec:
# maxima from right_to_left_maxima above, runs from re.findall.
def _oracle_encode(perm, up, down, step):
    maxima = right_to_left_maxima(perm)
    floors = [v for _, v in maxima[1:]] + [len(perm) % step]
    out = []
    prev_pos = 0
    for (pos, val), floor in zip(maxima, floors):
        drops, rest = divmod(val - floor, step)
        if rest:
            raise AssertionError(f"maxima gap not a multiple of {step} in {perm}")
        out.append(up * (pos - prev_pos) + down * drops)
        prev_pos = pos
    return "".join(out)


def _oracle_decode(path, up, down, step):
    runs = re.findall(f"({up}+)({down}*)", path)
    n = sum(len(ups) for ups, _ in runs)
    out = [0] * n
    pos, val = n, n % step
    for ups, downs in reversed(runs):
        val += step * len(downs)
        out[pos - 1] = val
        pos -= len(ups)
    free = []
    bound = 0
    for i in range(n - 1, -1, -1):
        if out[i]:
            free.extend(range(bound + 1, out[i]))
            bound = out[i]
        elif free:
            out[i] = free.pop()
        else:
            raise ValueError("path is not in the image of the map")
    return tuple(out)


def _oracle_phi_inverse(path):
    if not B.path_is(path, "dyck"):
        raise ValueError(f"{path!r} is not a Dyck path")
    return _oracle_decode(path, "U", "D", 1)


def _oracle_subdiag_inverse(path):
    if not B.path_is(path, "subdiagonal"):
        raise ValueError(f"{path!r} is not a subdiagonal path")
    perm = _oracle_decode(path, "E", "N", 2)
    if not avoids(perm, P_ODD):
        raise ValueError("path is not in the image of the map")
    return perm


def _outcome(f, x):
    """``f(x)``, or the message of the ValueError it raises."""
    try:
        return f(x)
    except ValueError as exc:
        return ("ValueError", str(exc))


CODECS = {  # map: ((up, down, step), map, inverse, oracle inverse)
    "phi": (("U", "D", 1), B.phi, B.phi_inverse, _oracle_phi_inverse),
    "subdiag": (("E", "N", 2), B.subdiag, B.subdiag_inverse, _oracle_subdiag_inverse),
}


def _random_path(rng, up, down, step, n):
    """A random path of n up steps and n // ``step`` down steps, each
    ``step`` high, that never goes below height 0."""
    out, ups, downs, h = [], n, n // step, 0
    while ups or downs:
        if downs and h >= step and (not ups or rng.random() < 0.5):
            out.append(down)
            downs -= 1
            h -= step
        else:
            out.append(up)
            ups -= 1
            h += 1
    return "".join(out)


@pytest.mark.parametrize("name,pats,nmax", [("phi", P213, 9), ("subdiag", P_ODD, 10)])
def test_codec_matches_the_oracle_on_every_avoider(name, pats, nmax):
    (up, down, step), forward, inverse, _ = CODECS[name]
    for level in iter_tree_levels(pats, nmax):
        for perm in level:
            path = forward(perm)
            assert path == _oracle_encode(perm, up, down, step), perm
            assert inverse(path) == _oracle_decode(path, up, down, step) == perm, path


@pytest.mark.parametrize("name", CODECS)
def test_codec_inverse_matches_the_oracle_on_every_word(name):
    (up, down, _), _, inverse, oracle = CODECS[name]
    for size in range(13):
        for word in product(up + down, repeat=size):
            path = "".join(word)
            assert _outcome(inverse, path) == _outcome(oracle, path), path


@pytest.mark.parametrize("name", CODECS)
def test_codec_matches_the_oracle_on_long_random_paths(name):
    # 20 seeded paths per map, each of n = 2000 up steps: Dyck paths of
    # semilength 2000, subdiagonal paths of length 3000.  The maps check
    # their own domains, so the oracle is the bare codec.
    (up, down, step), forward, inverse, _ = CODECS[name]
    rng = random.Random(30)
    for _ in range(20):
        path = _random_path(rng, up, down, step, 2000)
        perm = inverse(path)
        assert perm == _oracle_decode(path, up, down, step)
        assert forward(perm) == _oracle_encode(perm, up, down, step) == path
