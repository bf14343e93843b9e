"""Local search heuristics: exactness of incremental counts, determinism,
monotonicity, and the greedy shrink against brute subset oracles.

The left-count delta and the crossings through every vertex, pair and
triple are checked against the O(n) and O(n^4) 4-subset scans
(_flip_delta, _involvements), and
the integer ray step against the Fraction one (_ray_step_oracle), and flip
search against its rotation-table, ``rng.sample`` loop
(sig_flip_search_oracle), all kept here as oracles."""

import hashlib
import random
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import comb, lcm

import pytest

from crossnum import heuristics, signatures
from crossnum.doubling import double_points, double_signature
from crossnum.geometry import (
    PointSet,
    count_crossings,
    count_crossings_brute,
    crossings_from_windows,
    left_table,
    orient,
    sweep_around,
)
from crossnum.halving import halving_matching, halving_matching_sig
from crossnum.heuristics import (
    SearchBudget,
    _left_delta,
    _left_update,
    _ray_step,
    _simplest_between,
    cell_walk,
    random_relocation,
    shrink,
    sig_flip_search,
)
from crossnum.signatures import (
    Signature,
    _pair_crossing,
    _rotation_windows,
    convex_signature,
    count_crossings_sig,
    count_crossings_sig_brute,
    delete_vertex,
    is_realizable,
    realizable_after_flip,
    removal_values_sig,
    require_realizable,
    signature_of,
)
from crossnum.io import format_drawing, load_points

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


def test_relocation_seeded_outputs_pinned():
    # sha256 of the output drawings, recorded before the sweep tables were
    # kept across steps: the first 48 points of k2643, the doubling chain
    # at 48, and random 6-point sets on 3000-step runs, whose sampling
    # squares outgrow the key scale and rebuild the tables.
    chain48 = PointSet(((0, 0), (1, 0), (0, 1)))
    while chain48.n < 48:
        chain48, _ = double_points(chain48, halving_matching(chain48))
    rng = random.Random(5)
    runs = [(_k2643(48), seed, 30) for seed in (1, 2, 3)]
    runs += [(chain48, seed, 30) for seed in (1, 2, 3)]
    runs += [(rand_general(rng, 6), seed, 3000) for seed in (0, 1, 2)]

    def digest(S, seed, steps):
        R = random_relocation(S, SearchBudget(max_steps=steps, rng_seed=seed))
        return hashlib.sha256(format_drawing(R).encode()).hexdigest()

    assert [digest(*run) for run in runs] == [
        "27bbcf9f54ad8b331431ea13bd90e2d751f32296dc690bda715bb0a8d563e2e2",
        "1f2f7666a8a49ccd418d8a44d876ac39930371203669f86d2698ce8208e3ae95",
        "59af02c0eb6b51b686a94e32fc619a51c451e5403e210c5bb80d1704f87c853e",
        "92e2be220fb26b6b5ce1dcb5e22ab634880b2f2d15024b09ba082478d0c69316",
        "92e2be220fb26b6b5ce1dcb5e22ab634880b2f2d15024b09ba082478d0c69316",
        "92e2be220fb26b6b5ce1dcb5e22ab634880b2f2d15024b09ba082478d0c69316",
        "ad8916bb6ead835e3db0ce36dda79e8b77d1c97fa50c43ea4a9eba348d0057f4",
        "145ebbd87b4a1c5a29c60c866819294122a0de31621cf4bb591da44157805050",
        "697a69a37418f14189883c7fff27f211c0f3d0ca8e7b34b145f62c16eeb78fdf",
    ]


def test_cell_walk_seeded_outputs_pinned():
    # sha256 of the output drawings and of the positions and counts passed
    # to on_state, recorded while every ray step still built a Fraction per
    # line: both modes on the first 24 and 48 points of k2643 and on the
    # doubling chain at 48 (where no walk improves, so the trail is what
    # pins the steps).
    chain48 = PointSet(((0, 0), (1, 0), (0, 1)))
    while chain48.n < 48:
        chain48, _ = double_points(chain48, halving_matching(chain48))
    runs = []
    for mode, steps in (("random", 60), ("greedy", 30)):
        runs += [(_k2643(24), v, seed, mode, steps) for v, seed in ((0, 1), (11, 2), (23, 3))]
        runs += [(_k2643(48), v, seed, mode, steps) for v, seed in ((5, 1), (30, 4))]
        runs += [(chain48, v, seed, mode, steps) for v, seed in ((0, 1), (17, 2), (47, 3))]

    def digest(S, v, seed, mode, steps):
        trail = []
        R = cell_walk(
            S,
            v,
            SearchBudget(max_steps=steps, rng_seed=seed),
            mode=mode,
            on_state=lambda state, cr: trail.append((state.current_point, cr)),
        )
        return hashlib.sha256((format_drawing(R) + repr(trail)).encode()).hexdigest()

    assert [digest(*run) for run in runs] == [
        "766ead23c73bc283164d8297cce049b0fe7752588dd6dbe375306433c2eac2ea",
        "b331ae7a1c7f4b67e540275a18d17516202696292c62304d12b9badfca99d0ee",
        "565cadd2032af2f75b6004b856d47c1ccaa390b239c672fa46b364bb995dfab0",
        "ce5ef5e37283d2f6241dcec23870c5d1a55444a55c4e0f6b552ddbfc69f3b58a",
        "b9e26e4b568ebb9f87b0d098669f7754bcae45597452899ad47e33f59f32efe2",
        "3d31878ce694ef836ccd3c3a6dab03d9850a0609d8150d9cc40b3df20cf12e63",
        "df97cf21ff6698c46e583371ea72d471a790ed453cdbb800278bf43c8a88fbac",
        "d6dd99d6364744f31d64f3b558f4a7358ebedb78475065255df31d9de5b50f56",
        "d8bdc492a7300446d73065d46bd7f8a12d8504afa1a84c18a887830c6b71fc60",
        "cbccba67d93f14e1ddae78d42746751fa66dbee490ea546953faf2691ee6a150",
        "964a6105245be1f4185ab5cc238f3c10a543f25a690793aba3148013f9d53d8d",
        "c8226007856cc4869e7ee0a15ce37e54df99e393a9c2a0d11be3cc39a5ea6cdd",
        "148bc4da15e078bac976a5cb316d4b19d280859d4389c25fe601f6b5d21a7652",
        "df41394c4bbb79f6f568f75e3d6c148460e2755d1d7110eba9e52938915be569",
        "1e69e6f06d8e44ed44c34e45d6252c6ed07613bbc2813f703f24ae3928fb5875",
        "8bd82dd29b687a849d046d5cd5bb714fcfe92ef0f2c975de4b0f9de107c37c50",
    ]


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


# -- oracles: the 4-subset scans the rotation tables replaced -----------------


def _flip_delta(D, a, b, v):
    """Change in crossing count when the orientation of (a, b, v) flips.

    Only 4-subsets containing all of a, b, v are affected, so the update
    costs O(n) sign probes.
    """
    t = tuple(sorted((a, b, v)))
    sign = D.sign
    before = after = 0
    for x in range(D.n):
        if x == a or x == b or x == v:
            continue
        if _pair_crossing(sign, a, b, v, x):
            before += 1
    D._flip_inplace(t)
    for x in range(D.n):
        if x == a or x == b or x == v:
            continue
        if _pair_crossing(sign, a, b, v, x):
            after += 1
    D._flip_inplace(t)
    return after - before


def _involvements(drawing):
    """Crossing count plus the crossings involving each vertex, pair and
    triple, from all C(n, 4) quadruples (pairs and triples as increasing
    dict keys, present only when some crossing involves them)."""
    D = drawing if isinstance(drawing, Signature) else signature_of(drawing)
    n, sign = D.n, D.sign
    cr, inv, inv2, inv3 = 0, [0] * n, {}, {}
    for quad in combinations(range(n), 4):
        if _pair_crossing(sign, *quad):
            cr += 1
            for x in quad:
                inv[x] += 1
            for pair in combinations(quad, 2):
                inv2[pair] = inv2.get(pair, 0) + 1
            for tri in combinations(quad, 3):
                inv3[tri] = inv3.get(tri, 0) + 1
    return cr, inv, inv2, inv3


def _best_removal_tuple_oracle(drawing, k):
    """The lexicographically least size-k subset of least remaining count,
    scored by inclusion-exclusion over the quadruple scan's tables."""
    cr, inv, inv2, inv3 = _involvements(drawing)
    best = None
    for sub in combinations(range(drawing.n), k):
        c = cr - sum(inv[x] for x in sub)
        c += sum(inv2.get(pair, 0) for pair in combinations(sub, 2))
        if k == 3:
            c -= inv3.get(sub, 0)
        if best is None or c < best[0]:
            best = (c, sub)
    return best[1]


def sig_flip_search_oracle(D, budget, progress=None):
    """sig_flip_search as it was before it ran on its sign rows: the left
    table from the n sorted rotations, each triple from ``rng.sample``,
    the delta before the validating ``realizable_after_flip``."""
    require_realizable(D)
    cur = D.copy()
    n = cur.n
    rng = random.Random(budget.rng_seed)
    L = left_table(n, cur.sweeps())[0]
    cr = crossings_from_windows(n, L)
    best_cr = cr
    steps = 0
    start = time.monotonic()
    while not budget.exhausted(steps, start):
        i, j, k = sorted(rng.sample(range(n), 3))
        tri = (i, j, k) if cur.sign(i, j, k) > 0 else (i, k, j)
        delta = _left_delta(n, L, *tri)
        steps += 1
        if delta <= 0 and realizable_after_flip(cur, (i, j, k)):
            cur._flip_inplace((i, j, k), realizable=True)
            _left_update(n, L, *tri)
            cr += delta
            best_cr = min(best_cr, cr)
        if progress is not None:
            progress(steps, cr, best_cr)
    return cur


def _k2643_sample(n):
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    return PointSet(tuple(random.Random(0).sample(list(golden), n)))


def _flip_signatures():
    """Chain signatures n = 6, 12, 24, 48 and k2643 sample signatures
    n = 12 ... 96, labelled."""
    out = []
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    while S.n < 48:
        S, _ = double_points(S, halving_matching(S))
        if S.n >= 6:
            out.append((f"chain{S.n}", signature_of(S)))
    for n in (12, 21, 22, 24, 28, 48, 96):
        out.append((f"k2643-{n}", signature_of(_k2643_sample(n))))
    return out


def test_sig_flip_search_matches_oracle():
    sigs = [("convex5", convex_signature(5)), ("convex6", convex_signature(6))]
    sigs += _flip_signatures()
    # unmarked, so the opening check runs is_realizable on both sides
    sigs.append(("parsed24", Signature(24, dict(sigs)["k2643-24"].to_bytes())))
    budgets = [SearchBudget(max_steps=m, rng_seed=s) for s in range(4) for m in (0, 1, 300)]
    budgets += [SearchBudget(wall_time=0, rng_seed=s) for s in range(4)]
    kept = 0
    for label, D in sigs:
        for b in budgets:
            got, want = [], []
            out = sig_flip_search(D, b, progress=lambda *c: got.append(c))
            ref = sig_flip_search_oracle(D, b, progress=lambda *c: want.append(c))
            assert out == ref and got == want, (label, b)
            assert out._realizable and ref._realizable, (label, b)
            assert len(got) == (b.max_steps or 0)
            kept += out != D
    assert kept > 0  # some searches keep a flip, so the table update runs


@pytest.mark.parametrize("n", range(3, 45))
def test_triples_draw_like_sample(n):
    # sample uses its pool up to n = 21 and its set from n = 22
    for seed in range(30):
        rng = random.Random(seed)
        draws = heuristics._triples(random.Random(seed), n)
        for _ in range(50):
            assert next(draws) == tuple(sorted(rng.sample(range(n), 3))), (n, seed)


def test_windows_table_matches_left_table():
    rng = random.Random(2301)
    for label, D in _flip_signatures():
        n = D.n
        assert list(D.windows()) == left_table(n, D.sweeps())[0].tolist(), label
        # a walk of the flips realizable_after_flip allows
        E = D.copy()
        kept = tries = 0
        while kept < 10 and tries < 5000:
            tries += 1
            t = tuple(sorted(rng.sample(range(n), 3)))
            if realizable_after_flip(E, t):
                E._flip_inplace(t, realizable=True)
                kept += 1
                assert list(E.windows()) == left_table(n, E.sweeps())[0].tolist(), (label, t)
        assert kept > 0, label


def test_keeps_realizable_matches_realizable_after_flip():
    rng = random.Random(2302)
    for label, D in _flip_signatures():
        n = D.n
        if n <= 12:
            triples = combinations(range(n), 3)
        else:
            triples = (tuple(sorted(rng.sample(range(n), 3))) for _ in range(200))
        for t in triples:
            assert signatures._keeps_realizable(D, *t) == realizable_after_flip(D, t), (label, t)
    D = convex_signature(6)
    for t in ((0, 0, 1), (1, 2, 1), (0, 1, 6), (-1, 2, 3)):
        with pytest.raises(ValueError):
            realizable_after_flip(D, t)


def _sweeps(drawing):
    sweep = _rotation_windows if isinstance(drawing, Signature) else sweep_around
    return (sweep(drawing, v) for v in range(drawing.n))


def _k2643(n):
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    return PointSet(tuple(golden[:n]))


def _ccw(D, i, j, k):
    return (i, j, k) if D.sign(i, j, k) > 0 else (i, k, j)


def test_left_delta_matches_flip_delta_oracle():
    # Every triple of every realizable signature on 4 and 5 vertices whose
    # flip keeps it realizable; the left-count identity says nothing about
    # the others, which flip search never keeps.
    checked = {}
    for n in (4, 5):
        nt = comb(n, 3)
        checked[n] = 0
        for bits in range(1 << nt):
            D = Signature(n, bits.to_bytes((nt + 7) // 8, "little"))
            if not is_realizable(D):
                continue
            L = left_table(n, _sweeps(D))[0]
            assert crossings_from_windows(n, L) == count_crossings_sig_brute(D)
            for t in combinations(range(n), 3):
                if realizable_after_flip(D, t):
                    assert _left_delta(n, L, *_ccw(D, *t)) == _flip_delta(D, *t)
                    checked[n] += 1
    assert checked == {4: 48, 5: 1200}
    # Seeded walks through realizable signatures, n = 5..16, keeping every
    # realizable flip and updating the table as flip search does.
    rng = random.Random(40)
    for trial in range(12):
        D = signature_of(rand_general(rng, 5 + trial))
        n = D.n
        L = left_table(n, _sweeps(D))[0]
        cr = count_crossings_sig(D)
        kept = 0
        for _ in range(60):
            t = tuple(sorted(rng.sample(range(n), 3)))
            if not realizable_after_flip(D, t):
                continue
            tri = _ccw(D, *t)
            delta = _left_delta(n, L, *tri)
            assert delta == _flip_delta(D, *t)
            D._flip_inplace(t)
            _left_update(n, L, *tri)
            cr += delta
            kept += 1
        assert kept > 0 and is_realizable(D)
        assert L == left_table(n, _sweeps(D))[0]
        assert cr == crossings_from_windows(n, L) == count_crossings_sig_brute(D)


def test_rotation_tables_match_involvements_oracle():
    rng = random.Random(41)
    drawings = [_k2643(24)]
    for _ in range(40):
        drawings.append(rand_general(rng, rng.randint(5, 14)))
    for S in drawings:
        for dr in (S, signature_of(S)):
            n = dr.n
            cr, inv, inv2, inv3 = _involvements(dr)
            D = dr if isinstance(dr, Signature) else signature_of(dr)
            got_cr, got_inv, got2, rows = signatures._crossings_through(D, triples=True)
            pairs = list(combinations(range(n), 2))
            got3 = {(a, b, c): t for (a, b), row in zip(pairs, rows) for c, t in enumerate(row, b + 1)}
            assert len(rows) == len(pairs) and len(got3) == comb(n, 3)
            assert got3 == {t: inv3.get(t, 0) for t in combinations(range(n), 3)}
            assert (got_cr, got_inv) == (cr, inv)
            assert got2 == [
                [inv2.get((min(a, b), max(a, b)), 0) if a != b else 0 for b in range(n)] for a in range(n)
            ]
            assert signatures._crossings_through(D) == (cr, inv, got2, None)


def _chain24():
    """The point-set doubling chain 3 -> 24 from the triangle, and the
    signature doubled from its 12-point member."""
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    chain = {}
    while S.n < 24:
        S, _ = double_points(S, halving_matching(S))
        chain[S.n] = S
    D = signature_of(chain[12])
    D2, _ = double_signature(D, halving_matching_sig(D))
    return chain[24], D2


def test_shrink_matches_involvements_oracle(monkeypatch):
    S24, D24 = _chain24()
    rng = random.Random(42)
    R = rand_general(rng, 16)
    drawings = (S24, D24, _k2643(24), signature_of(_k2643(20)), R, signature_of(R))

    def digests():
        out = []
        for dr in drawings:
            for k in (2, 3):
                steps = []
                shrink(dr, 3, k, emit=steps.append)
                text = "".join(format_drawing(x) for x in steps)
                out.append(hashlib.sha256(text.encode()).hexdigest())
        return out

    fast = digests()
    monkeypatch.setattr(heuristics, "_best_removal_tuple", _best_removal_tuple_oracle)
    assert fast == digests()


def test_cell_walk_table_count_matches_recount():
    S = _k2643(24)
    for mode in ("random", "greedy"):
        for v, seed in ((0, 1), (7, 2), (23, 3)):
            logged = []

            def check(state, cr, logged=logged):
                px, py = state.current_point
                sc = lcm(px.denominator, py.denominator)
                pts = [(x * sc, y * sc) for x, y in S]
                pts[v] = (int(px * sc), int(py * sc))
                assert count_crossings(PointSet(tuple(pts))) == cr
                logged.append(cr)

            cell_walk(S, v, SearchBudget(max_steps=25, rng_seed=seed), mode=mode, on_state=check)
            assert len(logged) == 25


def _ray_step_oracle(pts, others, cur, d):
    """The ray step with one Fraction parameter per line, which the integer
    kernel replaced."""
    t1 = t2 = None
    line = None
    for i in range(len(others)):
        ai = others[i]
        ax, ay = pts[ai]
        for j in range(i + 1, len(others)):
            bi = others[j]
            ux = pts[bi][0] - ax
            uy = pts[bi][1] - ay
            denom = ux * d[1] - uy * d[0]
            if denom == 0:
                continue
            t = -(ux * (cur[1] - ay) - uy * (cur[0] - ax)) / denom
            if t <= 0:
                continue
            if t1 is None or t < t1:
                t2 = t1
                t1, line = t, (ai, bi)
            elif t == t1:
                return None
            elif t2 is None or t < t2:
                t2 = t
    if t1 is None:
        return None
    mid = t1 + 1 if t2 is None else _simplest_between((2 * t1 + t2) / 3, (t1 + 2 * t2) / 3)
    return line[0], line[1], (cur[0] + mid * d[0], cur[1] + mid * d[1])


def _check_ray_step(pts, v, cur, d):
    others = [u for u in range(len(pts)) if u != v]
    got = _ray_step(pts, others, cur, d)
    assert got == _ray_step_oracle(pts, others, cur, d)
    return got


def test_ray_step_matches_fraction_oracle():
    F = Fraction
    # fixed (0, 0), (4, 0), (0, 4), (4, 4): lines y = 0, x = 0, y = x,
    # x + y = 4, x = 4, y = 4; vertex 4 moves
    box = [(0, 0), (4, 0), (0, 4), (4, 4), (0, 0)]
    # straight up from (2, 1) meets y = x and x + y = 4 at once, at (2, 2)
    assert _check_ray_step(box, 4, (F(2), F(1)), (0, 1)) is None
    # along +x: parallel to y = 0 and y = 4; x + y = 4 at t = 1, x = 4 at t = 2
    assert _check_ray_step(box, 4, (F(2), F(1)), (1, 0)) == (1, 2, (F(7, 2), F(1)))
    # from an unbounded cell, moving away from all six lines
    assert _check_ray_step(box, 4, (F(10), F(-1)), (2, -1)) is None
    # only x + y = 4 lies ahead: one unit past it
    assert _check_ray_step(box, 4, (F(6), F(-1)), (0, -1)) == (1, 2, (F(6), F(-3)))
    # from a point on y = 0 the crossing at t = 0 is not ahead
    assert _check_ray_step(box, 4, (F(2), F(0)), (1, 1)) == (1, 2, (F(7, 2), F(3, 2)))

    chain = PointSet(((0, 0), (1, 0), (0, 1)))
    sets = []
    while chain.n < 48:
        chain, _ = double_points(chain, halving_matching(chain))
        if chain.n in (24, 48):
            sets.append(chain)
    sets += [_k2643(24), _k2643(48)]
    rng = random.Random(14)
    for S in sets:
        pts = [tuple(p) for p in S]
        v = rng.randrange(S.n)
        positions = []
        for mode in ("random", "greedy"):
            cell_walk(
                S,
                v,
                SearchBudget(max_steps=4, rng_seed=rng.randrange(100)),
                mode=mode,
                on_state=lambda state, cr: positions.append(state.current_point),
            )
        # the start, the walk's positions, and nearby points with large
        # denominators (a rational offset of ~200 bits)
        big = F(rng.getrandbits(200) + 1, rng.getrandbits(200) | 1)
        positions += [(F(pts[v][0]), F(pts[v][1])), (positions[0][0] + big, positions[0][1] - big)]
        for x, y in positions:
            a, b = rng.sample([u for u in range(S.n) if u != v], 2)
            w = lcm(x.denominator, y.denominator)
            directions = [
                (rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)),
                (rng.randint(-3, 3) or 1, rng.randint(-3, 3)),
                # parallel to the line through a and b
                (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]),
                # straight at a fixed point, a vertex of the arrangement
                (int((pts[a][0] - x) * w), int((pts[a][1] - y) * w)),
            ]
            for d in directions:
                _check_ray_step(pts, v, (x, y), d)


def _nonrealizable7():
    """A seeded random signature on 7 vertices that is not realizable, on
    which the rotation counters read nonsense: their values below are those
    of the sign rows (bit counts of masked rows), and the fast count differs
    from the brute one."""
    rng = random.Random(0)
    D = Signature(7, bytes(rng.getrandbits(8) for _ in range(5)))
    assert not is_realizable(D)
    assert (count_crossings_sig(D), count_crossings_sig_brute(D)) == (13, 17)
    assert removal_values_sig(D) == [9, 13, 8, 14, 10, 13, 6]
    return D


def test_nonrealizable_signature_rejected_before_first_step(monkeypatch):
    D = _nonrealizable7()
    calls = []

    def counted(E):
        calls.append(E)
        return is_realizable(E)

    monkeypatch.setattr(signatures, "is_realizable", counted)
    steps = []
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="not realizable"):
            shrink(D, 4, k, emit=steps.append)
    with pytest.raises(ValueError, match="not realizable"):
        sig_flip_search(D, SearchBudget(max_steps=50), progress=lambda *a: steps.append(a))
    assert steps == [] and len(calls) == 4
    # a realizable signature is checked once, not once per step, and one
    # marked realizable (here by signature_of) not at all
    calls.clear()
    E = signature_of(_k2643(12))
    shrink(Signature(12, E.to_bytes()), 5, 2, emit=steps.append)
    sig_flip_search(convex_signature(6), SearchBudget(max_steps=20), progress=lambda *a: steps.append(a))
    assert len(calls) == 2 and len(steps) == 4 + 20
    shrink(E, 5, 2)
    sig_flip_search(E, SearchBudget(max_steps=20))
    assert len(calls) == 2
