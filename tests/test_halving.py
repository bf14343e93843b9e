"""Halving lines, directions, and matchings — geometric and signature routes."""

import math
import random
from itertools import combinations

import pytest

from crossnum.geometry import PointSet, orient
from crossnum.halving import (
    NO_MATCHING,
    HalvingLine,
    HalvingMatching,
    check_halving_line,
    check_halving_line_sig,
    halving_direction,
    halving_lines,
    halving_matching,
    halving_matching_sig,
    slot_partner,
)
from crossnum.signatures import convex_signature, signature_of

from conftest import convex_points, rand_general


def brute_even_lines(S):
    """Pairs whose connecting line splits the rest evenly."""
    out = set()
    for a, b in combinations(range(S.n), 2):
        pos = sum(
            1
            for j in range(S.n)
            if j not in (a, b) and orient(S[a], S[b], S[j]) > 0
        )
        if 2 * pos == S.n - 2:
            out.add((a, b))
    return out


def float_gap_classes(S, v):
    """Independent list of the balancing gaps at an odd-n vertex.

    Returns, per balancing gap in counterclockwise order from the positive
    x axis, the integer sum of its two bounding event vectors; every
    direction class spans two antipodal gaps.  Coordinates are at most 60,
    so ordering the events by atan2 is exact.
    """
    c = S[v]
    evs = []
    for j, p in enumerate(S):
        if j == v:
            continue
        d = (p[0] - c[0], p[1] - c[1])
        for e in (d, (-d[0], -d[1])):
            evs.append((math.atan2(e[1], e[0]) % (2 * math.pi), e))
    evs.sort()
    reps = []
    for g in range(len(evs)):
        a1, e1 = evs[g]
        a2, e2 = evs[(g + 1) % len(evs)]
        mid = (a1 + (a2 if a2 > a1 else a2 + 2 * math.pi)) / 2
        u = (math.cos(mid), math.sin(mid))
        left = sum(
            1
            for j, p in enumerate(S)
            if j != v and u[0] * (p[1] - c[1]) - u[1] * (p[0] - c[0]) > 0
        )
        if left == (S.n - 1) // 2:
            reps.append((e1[0] + e2[0], e1[1] + e2[1]))
    assert len(reps) % 2 == 0
    return reps


def test_even_lines_match_brute():
    rng = random.Random(11)
    for _ in range(60):
        S = rand_general(rng, rng.choice([4, 6, 8, 10, 12]))
        lines = halving_lines(S)
        assert {(hl.anchor, hl.partner) for hl in lines} == brute_even_lines(S)
        for hl in lines:
            assert check_halving_line(S, hl)


def test_odd_lines_verified_and_class_counts():
    rng = random.Random(12)
    for _ in range(40):
        S = rand_general(rng, rng.choice([3, 5, 7, 9]))
        lines = halving_lines(S)
        per_v = {}
        for hl in lines:
            assert hl.partner is None
            assert check_halving_line(S, hl)
            per_v.setdefault(hl.anchor, []).append(hl.direction)
        for v in range(S.n):
            reps = float_gap_classes(S, v)
            # one representative per class: the counterclockwise-first one
            upper = [(x, y) for x, y in reps if y > 0 or (y == 0 and x > 0)]
            assert per_v.get(v, []) == upper
            assert len(upper) == len(reps) // 2
            assert halving_direction(S, v) == reps[0]


def test_small_examples():
    l3 = halving_lines(convex_points(3))
    assert len(l3) == 3 and {hl.anchor for hl in l3} == {0, 1, 2}
    l4 = halving_lines(convex_points(4))
    assert {(hl.anchor, hl.partner) for hl in l4} == {(0, 2), (1, 3)}


def test_halving_direction():
    rng = random.Random(13)
    for _ in range(40):
        S = rand_general(rng, rng.choice([3, 5, 7, 9, 11]))
        v = rng.randrange(S.n)
        hl = HalvingLine(v, None, halving_direction(S, v))
        assert check_halving_line(S, hl)
    S = convex_points(5)
    for v in (-1, 5):
        with pytest.raises(ValueError, match="out of range"):
            halving_direction(S, v)


def test_odd_matching_always_exists():
    rng = random.Random(14)
    for _ in range(40):
        S = rand_general(rng, rng.choice([3, 5, 7, 9]))
        M = halving_matching(S)
        assert isinstance(M, HalvingMatching)
        assert set(M.assignments) == set(range(S.n))
        for v, hl in M.assignments.items():
            assert hl.anchor == v and check_halving_line(S, hl)


def brute_even_matchable(S):
    lines = sorted(brute_even_lines(S))

    def bt(v, used):
        if v == S.n:
            return True
        return any(
            v in pair and li not in used and bt(v + 1, used | {li})
            for li, pair in enumerate(lines)
        )

    return bt(0, frozenset())


def test_even_matching_matches_brute_backtracking():
    from crossnum.doubling import double_points

    rng = random.Random(15)
    yes = no = 0
    for trial in range(50):
        if trial % 5 == 0:
            # doubled sets are even and always matchable by construction
            S0 = rand_general(rng, rng.choice([3, 5]))
            S = double_points(S0, halving_matching(S0))[0]
        else:
            S = rand_general(rng, rng.choice([4, 6, 8]))
        M = halving_matching(S)
        assert isinstance(M, HalvingMatching) == brute_even_matchable(S)
        if isinstance(M, HalvingMatching):
            yes += 1
            used = set()
            for v, hl in M.assignments.items():
                assert v in (hl.anchor, hl.partner)
                assert check_halving_line(S, hl)
                key = (min(hl.anchor, hl.partner), max(hl.anchor, hl.partner))
                assert key not in used
                used.add(key)
        else:
            no += 1
    assert yes and no  # both outcomes exercised


def test_no_matching_examples():
    assert halving_matching(convex_points(4)) is NO_MATCHING
    tri_interior = PointSet(((0, 0), (12, 0), (0, 12), (3, 3)))
    assert halving_matching(tri_interior) is NO_MATCHING
    lines = halving_lines(tri_interior)
    assert len(lines) == 3
    assert all(3 in (hl.anchor, hl.partner) for hl in lines)


def test_signature_matching_cross_module():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(4, 10)
        S = rand_general(rng, n)
        D = signature_of(S)
        Ms = halving_matching_sig(D)
        Mg = halving_matching(S)
        assert isinstance(Ms, HalvingMatching) == isinstance(Mg, HalvingMatching)
        if isinstance(Ms, HalvingMatching):
            assert set(Ms.assignments) == set(range(n))
            for v, hl in Ms.assignments.items():
                assert check_halving_line_sig(D, hl)
                assert slot_partner(D, hl) != v


def test_convex_signature_slots():
    D5 = convex_signature(5)
    M5 = halving_matching_sig(D5)
    assert isinstance(M5, HalvingMatching)
    for hl in M5.assignments.values():
        s1, s2 = hl.direction
        assert (s2.gap_position - s1.gap_position) % 4 == 2
        assert check_halving_line_sig(D5, hl)
    assert halving_matching_sig(convex_signature(4)) is NO_MATCHING


def test_odd_signature_matching_always_exists():
    rng = random.Random(18)
    for _ in range(25):
        D = signature_of(rand_general(rng, rng.choice([3, 5, 7, 9])))
        assert isinstance(halving_matching_sig(D), HalvingMatching)
