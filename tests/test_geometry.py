"""Exact predicates, crossing counters, and candidate evaluation."""

import random
from functools import cmp_to_key
from importlib import resources
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnum import geometry
from crossnum.doubling import double_points
from crossnum.geometry import (
    CandidateBatch,
    DegenerateError,
    PointSet,
    _Rotations,
    _span,
    count_crossings,
    count_crossings_brute,
    evaluate_candidates,
    orient,
    removal_values,
    segments_cross,
    sweep_around,
)
from crossnum.halving import halving_matching
from crossnum.io import load_points

from conftest import convex_points, general_position, rand_general


def test_orient_basics():
    assert orient((0, 0), (1, 0), (0, 1)) > 0
    assert orient((0, 0), (0, 1), (1, 0)) < 0
    assert orient((0, 0), (1, 1), (2, 2)) == 0
    # huge coordinates stay exact
    big = 10**40
    assert orient((0, 0), (big, 1), (2 * big, 2)) == 0
    assert orient((0, 0), (big, 1), (2 * big, 3)) > 0


@given(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_orient_antisymmetry(a, b, c):
    s = orient(a, b, c)
    assert orient(b, a, c) == -s
    assert orient(a, c, b) == -s
    assert orient(b, c, a) == s
    assert orient(c, a, b) == s


def test_segments_cross_examples():
    assert segments_cross((0, 0), (4, 4), (0, 4), (4, 0))
    assert not segments_cross((0, 0), (4, 4), (5, 0), (9, 3))
    # degenerate endpoints (shared or collinear) are rejected, not guessed
    with pytest.raises(DegenerateError):
        segments_cross((0, 0), (4, 4), (4, 4), (8, 0))
    with pytest.raises(DegenerateError):
        segments_cross((0, 0), (1, 1), (3, 3), (4, 5))


def test_fast_equals_brute_random():
    rng = random.Random(7)
    for _ in range(120):
        S = rand_general(rng, rng.randint(4, 11))
        assert count_crossings(S) == count_crossings_brute(S)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fast_equals_brute_property(data):
    pts = data.draw(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
            min_size=4,
            max_size=7,
            unique=True,
        )
    )
    if not general_position(pts):
        return
    S = PointSet(tuple(pts))
    assert count_crossings(S) == count_crossings_brute(S)


def test_convex_counts():
    from math import comb

    for n in range(4, 10):
        assert count_crossings(convex_points(n)) == comb(n, 4)


def test_removal_values_match_deletion_recount():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(4, 12)
        S = rand_general(rng, n)
        vals = removal_values(S)
        cr = count_crossings(S)
        for v in range(n):
            assert vals[v] == count_crossings(S.delete(v))
        # each crossing quad is destroyed by exactly its 4 vertices
        assert sum(cr - x for x in vals) == 4 * cr


def test_evaluate_candidates_oracle():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(4, 10)
        S = rand_general(rng, n)
        h = rng.randrange(n)
        cands = [(rng.randint(-70, 70), rng.randint(-70, 70)) for _ in range(n)]
        cands.append(S[h])  # identity move
        cands.append(S[(h + 1) % n])  # duplicate of an existing point
        vals = evaluate_candidates(S, CandidateBatch(h, tuple(cands)))
        rest = [S[i] for i in range(n) if i != h]
        for q, v in zip(cands, vals):
            sub = rest + [q]
            if len(set(sub)) != len(sub) or not general_position(sub):
                assert v is None
            else:
                assert v == count_crossings(PointSet(tuple(sub)))
        assert vals[n] == count_crossings(S)
        assert vals[n + 1] is None


# ---------------------------------------------------------------------------
# candidate evaluation against the per-candidate sweep oracle


def _is_upper(v):
    """True for directions with angle in [0, pi): dy > 0, or dy == 0 and dx > 0."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


class _SweepTable:
    """Stored sweep around one point, queryable by exact cross products."""

    def __init__(self, pts, center):
        order, avals = sweep_around(pts, center)
        cx, cy = pts[center]
        self.vecs = [(pts[w][0] - cx, pts[w][1] - cy) for w in order]
        self.nu = sum(1 for v in self.vecs if _is_upper(v))
        self.pref = [0]
        for a in avals:
            self.pref.append(self.pref[-1] + a)
        self.tot = self.pref[-1]
        self.m = len(order)

    def _bisect(self, lo, hi, e):
        """Insertion cut for upper-class direction e among vecs[lo:hi] (folded)."""
        fold = lo >= self.nu
        while lo < hi:
            mid = (lo + hi) // 2
            wx, wy = self.vecs[mid]
            if fold:
                wx, wy = -wx, -wy
            c = wx * e[1] - wy * e[0]
            if c == 0:
                raise DegenerateError("candidate collinear with two points")
            if c > 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def window_count_and_arcsum(self, d):
        e = d if _is_upper(d) else (-d[0], -d[1])
        cut_u = self._bisect(0, self.nu, e)
        cut_l = self._bisect(self.nu, self.m, e)
        ins_d, ins_nd = (cut_u, cut_l) if _is_upper(d) else (cut_l, cut_u)
        mv = self.m
        s = ins_d % mv
        t = ins_nd % mv
        if s == t:
            wx, wy = self.vecs[s % mv]
            if d[0] * wy - d[1] * wx > 0:
                return mv, 0
            return 0, self.tot
        aq = (t - s) % mv
        if t <= s:
            arcsum = self.pref[s] - self.pref[t]
        else:
            arcsum = self.tot - (self.pref[t] - self.pref[s])
        return aq, arcsum


def evaluate_candidates_oracle(S, batch):
    """Candidate counts from a fresh sweep around each candidate plus two
    cross-product binary searches per vertex (the former implementation)."""
    pts = [tuple(p) for p in S]
    h = batch.anchor_index
    T = pts[:h] + pts[h + 1:]
    m = len(T)
    tables = [_SweepTable(T, v) for v in range(m)]
    base = comb(m, 4) - sum(
        comb(m - 1, 3) - sum(a * (a - 1) // 2 for a in sweep_around(T, v)[1]) for v in range(m)
    )
    cmm = comb(m - 1, 2)
    results = []
    for q in batch.candidates:
        try:
            _, avals = sweep_around(T + [q], m)
            t_q = comb(m, 3) - sum(a * (a - 1) // 2 for a in avals)
            u_total = 0
            for v in range(m):
                d = (q[0] - T[v][0], q[1] - T[v][1])
                aq, arcsum = tables[v].window_count_and_arcsum(d)
                u_total += cmm - aq * (aq - 1) // 2 - arcsum
            results.append(base + comb(m, 3) - t_q - u_total)
        except DegenerateError:
            results.append(None)
    return results


def _hard_candidates(rng, S, h, far):
    """Candidates on lines through two points of S minus the anchor (beyond
    and between them), on horizontal lines through one, repeated points, the
    identity move, far outside the bounding box, and random ones.  S must be
    scaled by 6 so thirds and halves of its differences are integral."""
    T = [S[i] for i in range(S.n) if i != h]
    lim = max(max(abs(x), abs(y)) for x, y in T)
    cands = [S[h], rng.choice(T)]
    for _ in range(6):
        (ax, ay), (bx, by) = rng.sample(T, 2)
        k = rng.choice((-12, -6, -3, 2, 3, 4, 9, 12, 18))  # t = k / 6
        cands.append((ax + (bx - ax) * k // 6, ay + (by - ay) * k // 6))
        cx, cy = rng.choice(T)
        cands.append((cx + rng.randint(-2 * lim, 2 * lim), cy))
        cands.append((rng.randint(-far, far), rng.randint(-far, far)))
        cands.append((rng.randint(-lim, lim), rng.randint(-lim, lim)))
    rng.shuffle(cands)
    return tuple(cands)


def test_evaluate_candidates_matches_sweep_oracle():
    rng = random.Random(61)
    nones = 0
    for trial in range(150):
        n = rng.randint(4, 12)
        lim = rng.choice((40, 10**4, 10**9))
        S = PointSet(tuple((6 * x, 6 * y) for x, y in rand_general(rng, n, lim)))
        if trial % 5 == 4:  # coordinates near 10**90
            S = PointSet(tuple((x + 10**90, y - 10**90) for x, y in S))
        h = rng.randrange(n)
        far = rng.choice((10**3, 10**12, 10**90)) * lim
        batch = CandidateBatch(h, _hard_candidates(rng, S, h, far))
        got = evaluate_candidates(S, batch)
        assert got == evaluate_candidates_oracle(S, batch), trial
        nones += got.count(None)
        assert got[batch.candidates.index(S[h])] == count_crossings(S)
    assert nones >= 900  # the degenerate candidates are really exercised


def _angular_order(pts, c):
    """The other points' indices counterclockwise around pts[c] from the
    positive x axis, by exact cross products."""
    cx, cy = pts[c]

    def cmp(i, j):
        a = (pts[i][0] - cx, pts[i][1] - cy)
        b = (pts[j][0] - cx, pts[j][1] - cy)
        if _is_upper(a) != _is_upper(b):
            return -1 if _is_upper(a) else 1
        return -1 if a[0] * b[1] - a[1] * b[0] > 0 else 1

    return sorted((i for i in range(len(pts)) if i != c), key=cmp_to_key(cmp))


def test_key_scale_boundary():
    # Span 2^8 - 1 in both axes.  Around (0, 0) the directions (128, 255) and
    # (127, 253) have slopes 1/(255 * 253) apart, the least two directions
    # of this span can be; with a key shift one bit short they floor to the
    # same key, which reads as a collinear triple.
    pts = [(0, 0), (128, 255), (127, 253), (255, 40), (40, 170), (200, 90), (90, 20)]
    assert _span(pts) == 2**8 - 1
    S = PointSet(tuple(pts))
    for c in range(len(pts)):
        order, avals = sweep_around(pts, c)
        assert order == _angular_order(pts, c)
        d = [(pts[q][0] - pts[c][0], pts[q][1] - pts[c][1]) for q in range(len(pts))]
        assert avals == [
            sum(1 for e in d if d[q][0] * e[1] - d[q][1] * e[0] > 0) for q in order
        ]
    assert count_crossings(S) == count_crossings_brute(S)
    # a collinear triple at full span is still caught
    col = PointSet(((0, 0), (85, 84), (255, 252), (255, 10), (30, 255)))
    assert _span(col) == 2**8 - 1
    with pytest.raises(DegenerateError):
        sweep_around(col, 0)
    with pytest.raises(DegenerateError):
        count_crossings(col)


def _cross_sweep(pts, c):
    """sweep_around's (order, avals) from exact cross products."""
    order = _angular_order(pts, c)
    d = [(x - pts[c][0], y - pts[c][1]) for x, y in pts]
    return order, [sum(1 for e in d if d[q][0] * e[1] - d[q][1] * e[0] > 0) for q in order]


def _spied_sweeps(monkeypatch, S):
    """list(S.sweeps()), and the (coarse, redone) of each sweep of its pass."""
    calls = []
    real = geometry._sweep_pass

    def spy(pts, shift, axis, coarse):
        for out in real(pts, shift, axis, coarse):
            calls.append(out[3:])
            yield out

    with monkeypatch.context() as m:
        m.setattr(geometry, "_sweep_pass", spy)
        return list(S.sweeps()), calls


def _horizontal_pairs(rng, pairs, lim):
    """A point set in general position made of pairs level with each other."""
    while True:
        pts = []
        for _ in range(pairs):
            y = rng.randint(-lim, lim)
            x1 = rng.randint(-lim, lim)
            x2 = rng.randint(-lim, lim)
            pts += [(x1, y), (x2, y)]
        if len(set(pts)) == len(pts) and general_position(pts):
            return PointSet(tuple(pts))


def test_two_level_sweeps_match_sweep_around(monkeypatch):
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    rng = random.Random(151)
    redone = 0
    for n in (24, 96, 200):
        # seeded samples, and runs of consecutive points, which are close
        # enough to tie at one word
        sample = sorted(rng.sample(range(golden.n), n))
        for S in (PointSet(tuple(golden[i] for i in sample)), PointSet(tuple(golden[:n]))):
            got, calls = _spied_sweeps(monkeypatch, S)
            assert got == [sweep_around(S.points, c) for c in range(n)], n
            assert all(coarse for coarse, _ in calls)  # 319-bit coordinates
            redone += sum(r for _, r in calls)
    assert redone > 1000
    # the doubling chain ties at one word around almost every center, so a
    # set switches to full-scale keys after its first sweep; below 128-bit
    # spans the one-word keys are not tried
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    while S.n < 192:
        S, _ = double_points(S, halving_matching(S))
        got, calls = _spied_sweeps(monkeypatch, S)
        assert got == [sweep_around(S.points, c) for c in range(S.n)], S.n
        flags = [coarse for coarse, _ in calls]
        if _span(S).bit_length() >= 128:
            assert flags == [True] + [False] * (S.n - 1) and 2 * calls[0][1] > S.n - 1
        else:
            assert not any(flags)
    for lim in (10**3, 2**140):
        for _ in range(6):
            S = _horizontal_pairs(rng, 6, lim)
            assert list(S.sweeps()) == [_cross_sweep(S.points, c) for c in range(S.n)]


def test_coarse_tie_resolved_at_full_scale(monkeypatch):
    # Around the origin, points 1, 2 and 3 have folded slopes -1/D, -2/D
    # and -3/D: one key at one word, and the reverse of index order at full
    # scale.  Point 4 lies just above the axis and point 5 on it.
    D = 1 << 130
    pts = [(0, 0), (1, D), (2, D), (-3, -D), (D - 1, 1), (5, 0), (-D, 7)]
    assert general_position(pts) and _span(pts).bit_length() >= 128
    S = PointSet(tuple(pts))
    got, calls = _spied_sweeps(monkeypatch, S)
    assert got == [_cross_sweep(pts, c) for c in range(len(pts))]
    assert calls[0] == (True, 3)
    order = got[0][0]
    assert order.index(2) < order.index(1) and order[:2] == [5, 4]
    assert count_crossings(S) == count_crossings_brute(S)
    # a center that redoes exactly half of its directions keeps one-word keys
    pts = [(0, 0), (1, D), (2, D), (D, 5), (-D, 7)]
    assert general_position(pts)
    got, calls = _spied_sweeps(monkeypatch, PointSet(tuple(pts)))
    assert got == [_cross_sweep(pts, c) for c in range(len(pts))]
    assert calls[0] == (True, 2) and all(coarse for coarse, _ in calls)


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (1, 1 << 130), (2, 1 << 131), (3, 1 << 130)],  # collinear in a tie
        [(0, 0), (1, 1 << 130), (-2, -(1 << 131)), (3, 1 << 130)],  # opposite in a tie
        [(0, 0), (5, 0), (-7, 0), (3, 1 << 130)],  # level on both sides
        [(0, 0), (1, 1 << 130), (0, 0)],  # repeated point
    ],
)
def test_two_level_sweeps_raise_on_degenerate(pts):
    # other points at angles apart, so that the sweeps around the
    # degenerate points keep one-word keys
    D = 1 << 130
    S = PointSet(tuple(pts + [(D, 5), (-D, 4), (D // 2, -D), (-D, -(D // 3))]))
    assert _span(S).bit_length() >= 128
    with pytest.raises(DegenerateError):
        list(S.sweeps())
    with pytest.raises(DegenerateError):
        count_crossings(S)
    with pytest.raises(DegenerateError):
        sweep_around(S.points, 0)


def _counted_keys(monkeypatch, run):
    """run()'s result, and how many directions ``_keyed`` keyed for it."""
    count = [0]
    real = geometry._keyed

    def spy(*args):
        out = real(*args)
        count[0] += len(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(geometry, "_keyed", spy)
        return run(), count[0]


def _pass_tables(S):
    """The relocation tables of S, and the same tables built one sweep at a
    time."""
    tables = _Rotations(S.points, _span(S))
    one = [
        tables._center(*geometry._sweep(tables.pts, v, tables.shift, tables.axis)[1:])
        for v in range(S.n)
    ]
    return tables.centers, one


def test_sweep_pass_keys_each_pair_once(monkeypatch):
    # One pass keys every pair once, plus the tied runs it redoes at full
    # scale and, on a switch to full scale after center v, the
    # (v + 1)(n - 1 - v) keys already handed on; sweeping each center on its
    # own keys n(n - 1) directions.
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    rng = random.Random(191)
    chain = PointSet(((0, 0), (1, 0), (0, 1)))
    while chain.n < 96:
        chain, _ = double_points(chain, halving_matching(chain))
    sample = PointSet(tuple(golden[i] for i in sorted(rng.sample(range(golden.n), 96))))
    redone = 0
    for S in (sample, PointSet(tuple(golden[:96])), chain):
        n = S.n
        (got, calls), keyed = _counted_keys(monkeypatch, lambda: _spied_sweeps(monkeypatch, S))
        assert got == [sweep_around(S.points, c) for c in range(n)]
        flags = [coarse for coarse, _ in calls]
        switch = [v for v in range(n - 1) if flags[v] and not flags[v + 1]]
        handed = sum((v + 1) * (n - 1 - v) for v in switch)
        if S is chain:
            assert switch == [0] and handed == n - 1
        else:
            assert switch == [] and all(flags)
        redo = sum(r for _, r in calls)
        assert keyed == comb(n, 2) + redo + handed < n * (n - 1)
        redone += redo
        # the relocation tables sweep every center at full scale in one pass
        (centers, one), keyed = _counted_keys(monkeypatch, lambda: _pass_tables(S))
        assert centers == one
        assert keyed == comb(n, 2) + n * (n - 1)  # the pass, then each center alone
    assert redone > 200


def test_sweep_pass_hands_on_axis_keys():
    # Level pairs get the axis key around both of their points, with upper
    # set around the left one; the key is handed on in either direction.
    rng = random.Random(192)
    for lim in (10**3, 2**140):
        rightward = leftward = 0
        for _ in range(8):
            S = _horizontal_pairs(rng, 6, lim)
            got = list(S.sweeps())
            assert got == [sweep_around(S.points, c) for c in range(S.n)]
            assert got == [_cross_sweep(S.points, c) for c in range(S.n)]
            centers, one = _pass_tables(S)
            assert centers == one
            for a in range(0, S.n, 2):
                rightward += S[a][0] < S[a + 1][0]
                leftward += S[a][0] > S[a + 1][0]
        assert rightward and leftward


def test_sweep_pass_switches_at_a_later_center(monkeypatch):
    # Points 0 and 1 lie far out, so the directions around them differ at
    # one word.  The rest lie on the parabola y = D x + x^2, whose chords
    # have slopes 1 / (D + i + j): one one-word key.  Point 2 is the first
    # center to redo more than half of its directions, so the keys that
    # points 0, 1 and 2 handed on are keyed again at full scale.
    D = 1 << 130
    pts = [(D * D, 0), (-D * D, 5)] + [(i, i * D + i * i) for i in range(1, 7)]
    assert general_position(pts)
    S = PointSet(tuple(pts))
    (got, calls), keyed = _counted_keys(monkeypatch, lambda: _spied_sweeps(monkeypatch, S))
    assert calls == [(True, 0), (True, 0), (True, 5)] + [(False, 0)] * 5
    assert keyed == comb(8, 2) + 5 + 3 * 5
    assert got == [sweep_around(pts, c) for c in range(8)]
    assert got == [_cross_sweep(pts, c) for c in range(8)]
    assert count_crossings(S) == count_crossings_brute(S)


@pytest.mark.parametrize("wide", [False, True])
def test_degenerate_at_last_index_raises(wide):
    # Every key around the last point is handed on from an earlier sweep,
    # so a repeat or a collinear triple ending there must still raise.
    rng = random.Random(193)
    if wide:
        golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
        pts = [golden[i] for i in sorted(rng.sample(range(golden.n), 20))]
    else:
        pts = list(rand_general(rng, 12))
    (ax, ay), (bx, by), (cx, cy) = pts[3], pts[7], pts[2]
    for tail in (
        [pts[5]],  # a repeated point
        [(2 * bx - ax, 2 * by - ay)],  # on the line through points 3 and 7
        [(cx + 1, cy), (cx + 2, cy)],  # level with point 2
    ):
        S = PointSet(tuple(pts + tail))
        with pytest.raises(DegenerateError):
            count_crossings(S)
        with pytest.raises(DegenerateError):
            removal_values(S)
        for h in (0, S.n - 1):
            with pytest.raises(DegenerateError):
                evaluate_candidates(S, CandidateBatch(h, (S[h], (1, 2))))


def test_rotation_tables_follow_moves():
    # A seeded sequence of accepted moves on one set of persistent tables,
    # each batch checked against the sweep oracle and full recounts, and the
    # tables after each move against a fresh build.  Every point stays a
    # multiple of 6, as _hard_candidates needs; some moves go far outside
    # the key scale's range and force the tables to be rebuilt first.
    rng = random.Random(62)
    rebuilds = moves = nones = 0
    for trial in range(24):
        n = rng.randint(5, 11)
        lim = rng.choice((40, 10**4, 10**9))
        S = PointSet(tuple((6 * x, 6 * y) for x, y in rand_general(rng, n, lim)))
        span = _span(S)
        tables = _Rotations(S, span)
        assert tables.crossings == count_crossings(S)
        for step in range(10):
            h = rng.randrange(n)
            batch = CandidateBatch(h, _hard_candidates(rng, S, h, 3 * lim))
            if not tables.covers(batch.candidates):
                span = _span(list(S) + list(batch.candidates))
                tables = _Rotations(S, span)
            got = tables.evaluate(h, batch.candidates)
            assert got == evaluate_candidates_oracle(S, batch), (trial, step)
            for q, c in zip(batch.candidates, got):
                if c is not None:
                    assert c == count_crossings(S.replace(h, q)), (trial, step)
            nones += got.count(None)
            reach = rng.choice((lim, lim, 10**30 * lim))
            while True:
                q = (6 * rng.randint(-reach, reach), 6 * rng.randint(-reach, reach))
                if step == 4:
                    q = S[h]  # identity move
                elif step % 3 == 0:  # level with another point, or plumb
                    w = S[rng.randrange(n)]
                    q = (q[0], w[1]) if step == 3 else (w[0], q[1])
                if not tables.covers([q]):
                    span = _span(list(S) + [q])
                    tables = _Rotations(S, span)
                    rebuilds += 1
                c = tables.evaluate(h, [q])[0]
                if c is not None:
                    break
            S = S.replace(h, q)
            tables.move(h, q, c)
            moves += 1
            assert c == count_crossings(S)
            assert tables.pts == list(S)
            assert tables.centers == _Rotations(S, span).centers
    assert moves == 240 and rebuilds >= 10 and nones >= 1000


def _folded_key(d, shift, axis):
    """The folded key of direction d at a key shift (the axis key when level)."""
    dx, dy = d
    if dy:
        return (-dx << shift) // dy
    return axis


def _one_word_ties(S, h, cands, span):
    """For each candidate, whether its one-word key ties a stored one-word key
    around some fixed point, and whether its exact key ties a stored key
    (it lies on a line through two fixed points), computed independently."""
    shift, axis = geometry._key_scale(span)
    wshift = max(0, shift - geometry._WORD)
    T = [S[i] for i in range(S.n) if i != h]
    stored = []
    for v in T:
        keys = {_folded_key((w[0] - v[0], w[1] - v[1]), shift, axis) for w in T if w != v}
        stored.append((v, keys, {k >> wshift for k in keys}))
    out = []
    for q in cands:
        word = exact = False
        for v, keys, words in stored:
            if q == v:
                exact = True
                continue
            key = _folded_key((q[0] - v[0], q[1] - v[1]), shift, axis)
            word = word or key >> wshift in words
            exact = exact or key in keys
        out.append((word, exact))
    return out


def _tying_candidates(rng, S, h, count):
    """Candidates beside the line through two fixed points: q = v + k (w - v)
    + (1, 0), whose direction from v ties w's at one word but not at full
    scale on wide coordinates; and on it, q = v + 2 (w - v)."""
    T = [S[i] for i in range(S.n) if i != h]
    cands = []
    for _ in range(count):
        (vx, vy), (wx, wy) = rng.sample(T, 2)
        k = rng.choice((2, 3, -1, -2))
        cands.append((vx + k * (wx - vx) + 1, vy + k * (wy - vy)))
    for _ in range(count // 6):
        (vx, vy), (wx, wy) = rng.sample(T, 2)
        cands.append((vx + 2 * (wx - vx), vy + 2 * (wy - vy)))
    return cands


def _square_candidates(rng, S, h, count):
    """Candidates sampled as random_relocation samples them: uniformly from
    the square around the anchor of half-side width plus height."""
    xs = [p[0] for p in S]
    ys = [p[1] for p in S]
    half = max(xs) - min(xs) + max(ys) - min(ys)
    px, py = S[h]
    return [(px + rng.randint(-half, half), py + rng.randint(-half, half)) for _ in range(count)]


def _wide_sets():
    """k2643 subsets with 319-bit coordinates (n = 24, 96) and the doubling
    chain at 48 and 96."""
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    rng = random.Random(163)
    sets = [PointSet(tuple(golden[i] for i in sorted(rng.sample(range(golden.n), n)))) for n in (24, 96)]
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    while S.n < 96:
        S, _ = double_points(S, halving_matching(S))
        if S.n in (48, 96):
            sets.append(S)
    return sets


def test_one_word_candidate_keys_match_oracle():
    # Candidates are placed by one-word keys and keyed exactly only on a
    # one-word tie; the counts must equal the sweep oracle's and full
    # recounts, with the tie path really taken.
    rng = random.Random(164)
    tie_path = collinear = 0
    for S in _wide_sets():
        h = rng.randrange(S.n)
        cands = _square_candidates(rng, S, h, S.n // 2) + _tying_candidates(rng, S, h, 24)
        rng.shuffle(cands)
        batch = CandidateBatch(h, tuple(cands))
        got = evaluate_candidates(S, batch)
        assert got == evaluate_candidates_oracle(S, batch), S.n
        ties = _one_word_ties(S, h, batch.candidates, _span(list(S) + cands))
        for q, c, (word, exact) in zip(batch.candidates, got, ties):
            assert (c is None) == exact, (S.n, q)
            if c is not None:
                assert c == count_crossings(S.replace(h, q)), (S.n, q)
            tie_path += word and not exact
            collinear += exact
    assert tie_path >= 50 and collinear >= 10


def test_rotation_tables_follow_tying_moves():
    # A seeded move sequence on a 319-bit subset in which every second move
    # lands on a candidate that ties a stored key at one word, so the
    # one-word lists take inserts among equal one-word keys; the tables must
    # equal a fresh build after each move.
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    rng = random.Random(165)
    S = PointSet(tuple(golden[i] for i in sorted(rng.sample(range(golden.n), 24))))
    span = _span(S)
    tables = _Rotations(S, span)
    tied = 0
    for step in range(16):
        h = rng.randrange(S.n)
        cands = _tying_candidates(rng, S, h, 6) if step % 2 else _square_candidates(rng, S, h, 8)
        if not tables.covers(cands):
            span = _span(list(S) + cands)
            tables = _Rotations(S, span)
        counts = tables.evaluate(h, cands)
        words = _one_word_ties(S, h, cands, span)
        picks = [i for i, c in enumerate(counts) if c is not None]
        i = picks[0] if step % 2 else min(picks, key=counts.__getitem__)
        tied += words[i][0]
        S = S.replace(h, cands[i])
        tables.move(h, cands[i], counts[i])
        assert counts[i] == count_crossings(S), step
        assert tables.centers == _Rotations(S, span).centers, step
    assert tied >= 8


def test_degenerate_raises():
    with pytest.raises(DegenerateError):
        count_crossings(PointSet(((0, 0), (1, 0), (2, 0), (0, 5))))


def test_pointset_delete_and_indexing():
    S = convex_points(5)
    T = S.delete(2)
    assert len(T) == 4
    assert list(T) == [S[0], S[1], S[3], S[4]]
