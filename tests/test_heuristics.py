"""Local search heuristics: exactness of incremental counts, determinism,
monotonicity, and the greedy shrink against brute subset oracles."""

import random
from importlib import resources
from itertools import combinations
from math import lcm

import pytest

from crossnum.geometry import (
    PointSet,
    count_crossings,
    count_crossings_brute,
    orient,
)
from crossnum.heuristics import (
    SearchBudget,
    cell_walk,
    random_relocation,
    shrink,
    sig_flip_search,
)
from crossnum.signatures import (
    convex_signature,
    count_crossings_sig,
    count_crossings_sig_brute,
    delete_vertex,
    is_realizable,
    signature_of,
)
from crossnum.io import load_points

from conftest import convex_points, rand_general


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget()  # nothing finite
    with pytest.raises(ValueError):
        SearchBudget(max_steps=-1)
    b = SearchBudget(max_steps=5)
    assert not b.exhausted(4, 0.0)


def test_zero_step_budgets_identity():
    S5 = convex_points(5)
    assert random_relocation(S5, SearchBudget(max_steps=0, rng_seed=1)) is S5
    assert cell_walk(S5, 0, SearchBudget(max_steps=0, rng_seed=1)) is S5
    D5 = convex_signature(5)
    out = sig_flip_search(D5, SearchBudget(max_steps=0, rng_seed=1))
    assert out == D5 and out is not D5


def test_cell_walk_incremental_matches_recount():
    rng = random.Random(20250825)
    for trial in range(15):
        n = rng.randint(5, 12)
        S = rand_general(rng, n)
        v = rng.randrange(n)
        logged = []

        def check(state, cr, S=S, v=v, logged=logged):
            px, py = state.current_point
            sc = lcm(px.denominator, py.denominator)
            pts = [(x * sc, y * sc) for x, y in S]
            pts[v] = (int(px * sc), int(py * sc))
            assert count_crossings(PointSet(tuple(pts))) == cr
            logged.append(cr)

        mode = "greedy" if trial % 3 == 0 else "random"
        res = cell_walk(
            S, v, SearchBudget(max_steps=20, rng_seed=trial), mode=mode, on_state=check
        )
        assert len(logged) == 20
        assert count_crossings(res) == min([count_crossings(S)] + logged)


def _inside(a, b, c, p):
    s = (orient(a, b, p), orient(b, c, p), orient(c, a, p))
    return all(x > 0 for x in s) or all(x < 0 for x in s)


def test_cell_walk_triangle_cells():
    # moving a fourth vertex around a triangle: crossings are 0 inside the
    # triangle, 1 in the three regions beyond an edge, 0 in the three cones
    # beyond a vertex (the quad is not in convex position there)
    S = PointSet(((0, 0), (26, 2), (11, 25), (12, 9)))
    tri = (S[0], S[1], S[2])

    def quad_count(p):
        quad = (*tri, p)
        for i in range(4):
            rest = [quad[j] for j in range(4) if j != i]
            if _inside(*rest, quad[i]):
                return 0
        return 1

    seen = {(True, 0): 0, (False, 1): 0, (False, 0): 0}
    for seed in range(25):

        def check(state, cr):
            p = state.current_point
            assert cr == quad_count(p)
            inn = _inside(*tri, p)
            if inn:
                assert cr == 0
            seen[(inn, cr)] += 1

        cell_walk(S, 3, SearchBudget(max_steps=12, rng_seed=seed), on_state=check)
    assert all(v > 3 for v in seen.values()), seen


def _coord_bits(S):
    return max(max(abs(x).bit_length(), abs(y).bit_length()) for x, y in S)


def test_cell_walk_keeps_coordinates_small():
    # Each step lands on the simplest rational of the middle third of the
    # next cell, so a long walk stays near the input's size (stepping to
    # cell midpoints reached 33,691 bits here).
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    S = PointSet(tuple(golden[:48]))
    b = SearchBudget(max_steps=60, rng_seed=1)
    R = cell_walk(S, 5, b)
    assert tuple(R) == tuple(cell_walk(S, 5, b))
    assert count_crossings(R) < count_crossings(S)
    assert _coord_bits(S) == 319
    assert _coord_bits(R) <= _coord_bits(S) + 4


def test_relocation_reaches_one_from_convex5():
    best_log = []
    res = random_relocation(
        convex_points(5),
        SearchBudget(max_steps=4000, rng_seed=7),
        progress=lambda s, c, b: best_log.append(b),
    )
    assert count_crossings(res) == 1
    assert all(b2 <= b1 for b1, b2 in zip(best_log, best_log[1:]))


def test_relocation_deterministic_and_never_worse():
    rng = random.Random(31)
    for trial in range(8):
        S = rand_general(rng, rng.randint(5, 9))
        b = SearchBudget(max_steps=300, rng_seed=trial * 11 + 1)
        r1 = random_relocation(S, b)
        r2 = random_relocation(S, b)
        assert tuple(r1) == tuple(r2)
        assert count_crossings(r1) <= count_crossings(S)


def test_cell_walk_deterministic_and_never_worse():
    rng = random.Random(32)
    for trial in range(8):
        S = rand_general(rng, rng.randint(5, 10))
        v = rng.randrange(S.n)
        b = SearchBudget(max_steps=40, rng_seed=trial)
        r1 = cell_walk(S, v, b)
        r2 = cell_walk(S, v, b)
        assert tuple(r1) == tuple(r2)
        assert count_crossings(r1) <= count_crossings(S)


def test_sig_flip_reaches_one_from_convex5():
    log = []
    res = sig_flip_search(
        convex_signature(5),
        SearchBudget(max_steps=400, rng_seed=3),
        progress=lambda s, c, b: log.append(b),
    )
    assert count_crossings_sig(res) == 1
    assert is_realizable(res)
    assert all(b2 <= b1 for b1, b2 in zip(log, log[1:]))


def test_sig_flip_deterministic_and_realizable():
    rng = random.Random(33)
    for trial in range(8):
        D = signature_of(rand_general(rng, rng.randint(5, 8)))
        b = SearchBudget(max_steps=150, rng_seed=trial)
        r1 = sig_flip_search(D, b)
        r2 = sig_flip_search(D, b)
        assert r1 == r2
        assert is_realizable(r1)
        assert count_crossings_sig(r1) <= count_crossings_sig(D)
        assert count_crossings_sig_brute(r1) == count_crossings_sig(r1)


def test_shrink_single_equals_repeated_argmin():
    rng = random.Random(34)
    S = rand_general(rng, 9)
    inter = []
    res = shrink(S, 5, 1, emit=inter.append)
    assert [x.n for x in inter] == [8, 7, 6, 5]
    assert tuple(res) == tuple(inter[-1])
    cur = S
    for step_set in inter:
        best = min(
            (count_crossings(cur.delete(v)), v) for v in range(cur.n)
        )
        cur = cur.delete(best[1])
        assert tuple(cur) == tuple(step_set)


def test_shrink_tuples_match_brute_subsets_points():
    rng = random.Random(35)
    for _ in range(6):
        n = rng.randint(8, 10)
        S = rand_general(rng, n)
        for k in (2, 3):
            got = shrink(S, n - k, k)
            best = None
            for sub in combinations(range(n), k):
                cur = S
                for v in sorted(sub, reverse=True):
                    cur = cur.delete(v)
                c = count_crossings_brute(cur)
                best = c if best is None else min(best, c)
            assert count_crossings(got) == best


def test_shrink_tuples_match_brute_subsets_signatures():
    rng = random.Random(36)
    for _ in range(4):
        n = rng.randint(8, 9)
        D = signature_of(rand_general(rng, n))
        for k in (2, 3):
            got = shrink(D, n - k, k)
            best = None
            for sub in combinations(range(n), k):
                cur = D
                for v in sorted(sub, reverse=True):
                    cur = delete_vertex(cur, v)
                c = count_crossings_sig_brute(cur)
                best = c if best is None else min(best, c)
            assert count_crossings_sig(got) == best


def test_shrink_ties_errors_truncation():
    S6 = convex_points(6)
    res = shrink(S6, 5, 1)
    assert count_crossings(res) == 5
    assert tuple(res) == tuple(S6.delete(0))  # tie -> lowest index
    with pytest.raises(ValueError):
        shrink(S6, 2, 1)  # target below 3
    with pytest.raises(ValueError):
        shrink(S6, 6, 1)  # already at target
    with pytest.raises(ValueError):
        shrink(S6, 5, 4)  # unsupported tuple size
    rng = random.Random(37)
    S8 = rand_general(rng, 8)
    inter = []
    shrink(S8, 5, 2, emit=inter.append)
    assert [x.n for x in inter] == [6, 5]  # final step truncated to one removal
