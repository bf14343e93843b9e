"""Exact integer geometry for straight-line drawings of complete graphs.

Every predicate and counter works on unbounded Python integers and never
rounds.  A drawing is a sequence of (x, y) integer pairs in general position
(no three points collinear).  The number of edge crossings of the complete
graph drawn with straight edges equals the number of 4-point subsets in
convex position, which is what the counters compute.

The fast counter uses one angular sweep per point.  Around a sweep center,
directions to the other points are split into two half-turn blocks and sorted
by an exact integer key, scaled once for the whole point set, so collinear
points show up as key collisions and everything stays in pure integer
arithmetic.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb


class DegenerateError(ValueError):
    """A repeated point or three collinear points where general position is required."""


def orient(a, b, c):
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def segments_cross(a, b, c, d):
    """True iff the open segments ab and cd properly cross.

    Raises DegenerateError when any three of the four points are collinear
    (which also covers repeated points).
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if 0 in (o1, o2, o3, o4):
        raise DegenerateError("collinear triple among segment endpoints")
    return o1 != o2 and o3 != o4


@dataclass(frozen=True)
class PointSet:
    """An indexed set of integer points; indices are stable identities."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))

    @property
    def n(self):
        return len(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def replace(self, i, q):
        """A copy with point i moved to q."""
        pts = list(self.points)
        pts[i] = tuple(q)
        return PointSet(tuple(pts))

    def delete(self, i):
        """A copy with point i removed (later indices shift down)."""
        pts = list(self.points)
        del pts[i]
        return PointSet(tuple(pts))


@dataclass(frozen=True)
class CandidateBatch:
    """Replacement positions to try for one vertex (the anchor)."""

    anchor_index: int
    candidates: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(tuple(q) for q in self.candidates))


def _points(S):
    return [tuple(p) for p in S]


def _key_scale(pts):
    """Key scale K and axis key for every direction between two of pts.

    With M the larger of the x- and y-span of pts, every direction component
    is at most M, so two distinct folded slopes differ by at least 1/M^2 and
    flooring them scaled by K = M^2 + 1 keeps them on distinct keys.  The
    axis key, -(M*K) - 1, lies below every such key.
    """
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    M = max(max(xs) - min(xs), max(ys) - min(ys))
    K = M * M + 1
    return K, -M * K - 1


def _sweep(pts, center, K, axis):
    """The sweep of sweep_around under a given key scale, plus its sorted blocks.

    Returns (order, avals, up, low), where up and low are the upper and lower
    half-turn blocks as sorted (key, index) lists.  A direction (dx, dy) is
    folded into the upper half turn and keyed by (-dx)*K // dy; horizontal
    directions get the axis key.  K and axis must come from _key_scale of a
    set that contains pts.
    """
    cx, cy = pts[center]
    up = []
    low = []
    for idx, (x, y) in enumerate(pts):
        dx = x - cx
        dy = y - cy
        if dy > 0:
            up.append(((-dx) * K // dy, idx))
        elif dy < 0:
            low.append((dx * K // (-dy), idx))
        elif dx > 0:
            up.append((axis, idx))
        elif dx < 0:
            low.append((axis, idx))
        elif idx != center:
            raise DegenerateError("repeated point at index %d" % idx)
    up.sort()
    low.sort()

    nu = len(up)
    nl = len(low)
    order = []
    avals = []
    # Window counts by merging the two sorted blocks.  For an upper element,
    # later upper elements plus the lower elements with a strictly smaller
    # folded key fall in its window; symmetrically for lower elements.  Equal
    # keys are equal or opposite directions.
    j = 0
    prev = None
    for i, (key, idx) in enumerate(up):
        if key == prev:
            raise DegenerateError("collinear points through sweep center")
        prev = key
        while j < nl and low[j][0] < key:
            j += 1
        if j < nl and low[j][0] == key:
            raise DegenerateError("collinear points through sweep center")
        order.append(idx)
        avals.append(nu - 1 - i + j)
    j = 0
    prev = None
    for i, (key, idx) in enumerate(low):
        if key == prev:
            raise DegenerateError("collinear points through sweep center")
        prev = key
        while j < nu and up[j][0] < key:
            j += 1
        order.append(idx)
        avals.append(nl - 1 - i + j)
    return order, avals, up, low


def sweep_around(pts, center):
    """Angular sweep of all other points around pts[center].

    Returns (order, avals).  order lists the other point indices sorted
    counterclockwise by direction starting from the positive x axis; avals[t]
    is the number of points whose direction lies in the open half turn
    counterclockwise after order[t]'s direction (the "window count" used by
    all triangle-counting formulas).

    Raises DegenerateError when two directions coincide or oppose, i.e. when
    the center lies on a line through two other points or a point repeats.
    """
    order, avals, _, _ = _sweep(pts, center, *_key_scale(pts))
    return order, avals


def crossings_from_windows(n, windows):
    """Crossing count of a drawing of K_n from all of its window counts.

    windows holds, in any order, the window count of every ordered pair
    (p, q): the number of vertices in the open half turn counterclockwise
    after q around p, which lie left of p->q; zeros may be mixed in.  A
    4-subset is non-convex exactly when one vertex lies inside the triangle
    of the other three, and of the C(n - 1, 3) triangles around p, all but
    the sum over q of C(window(p, q), 2) contain p.  That gives the k-edge
    identity cr = C(n, 4) - n * C(n - 1, 3) + the sum of C(window, 2)
    (Lovasz, Vesztergombi, Wagner & Welzl, Convex quadrilaterals and k-sets,
    2004; Abrego & Fernandez-Merchant, Graphs Combin. 21, 2005), for point
    sets and realizable signatures alike.
    """
    return comb(n, 4) - n * comb(n - 1, 3) + sum(a * (a - 1) // 2 for a in windows)


def count_crossings(S):
    """Exact crossing count of the straight-line K_n drawing on S.

    The window counts of one angular sweep per point, summed by
    crossings_from_windows.  O(n^2 log n).
    """
    pts = _points(S)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    scale = _key_scale(pts)
    windows = chain.from_iterable(_sweep(pts, p, *scale)[1] for p in range(n))
    return crossings_from_windows(n, windows)


def count_crossings_brute(S):
    """Crossing count straight from the definition: all disjoint segment pairs.

    O(n^4); kept as the oracle for the fast counter.
    """
    pts = _points(S)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    if n == 3:
        if orient(*pts) == 0:
            raise DegenerateError("collinear triple")
        return 0
    segs = list(combinations(range(n), 2))
    total = 0
    for s in range(len(segs)):
        a, b = segs[s]
        for t in range(s + 1, len(segs)):
            c, d = segs[t]
            if a == c or a == d or b == c or b == d:
                continue
            if segments_cross(pts[a], pts[b], pts[c], pts[d]):
                total += 1
    return total


def _window_prefix(avals):
    pref = [0]
    acc = 0
    for a in avals:
        acc += a
        pref.append(acc)
    return pref


def crossings_involving(n, sweeps):
    """Crossing count plus per-vertex crossing involvements from sweeps.

    sweeps yields, for each center x in index order, its (order, avals).  For
    each p the crossings involving p are C(n-1,3) minus the triangles
    containing p minus, for every other sweep center x, the triangles through
    p that contain x; the last term comes from window counts and an arc sum
    over the positions that see p in their window.  Returns (cr, involved);
    the involvements always satisfy sum(involved) == 4 * cr.
    """
    m = n - 1
    cmm = comb(m - 1, 2)
    involved = [comb(m, 3)] * n
    total_t = 0
    for x, (order, avals) in enumerate(sweeps):
        pref = _window_prefix(avals)
        tot = pref[-1]
        tx = comb(m, 3) - sum(a * (a - 1) // 2 for a in avals)
        total_t += tx
        involved[x] -= tx
        for pos in range(m):
            p = order[pos]
            a = avals[pos]
            ins = (pos + a + 1) % m
            if ins <= pos:
                arcsum = pref[pos] - pref[ins]
            else:
                arcsum = tot - (pref[ins] - pref[pos])
            involved[p] -= cmm - a * (a - 1) // 2 - (arcsum - (m - 1 - a))
    return comb(n, 4) - total_t, involved


def _int_table(n):
    """A flat n * n table of C ints, all 0: a memoryview cast to 'i', so a
    row or column slice is a view, not a copy."""
    return memoryview(bytearray(4 * n * n)).cast("i")


def left_table(n, sweeps):
    """Left counts and rotation positions of every ordered pair, from sweeps.

    sweeps yields, for each center p in index order, its (order, avals).
    Returns (L, pos), two flat n * n tables (``_int_table``), zero on the
    diagonal: L[p * n + q] is avals at q around p, the number of vertices
    left of p->q, and pos[p * n + q] is q's index in p's rotation.  Then
    L[p * n + q] + L[q * n + p] = n - 2, and for a point set or a realizable
    signature crossings_from_windows(n, L) is the crossing count.  Reversing
    the orientation of one triple moves its third vertex across each of its
    three pairs, so it changes six entries by one each.
    """
    L = _int_table(n)
    pos = _int_table(n)
    for p, (order, avals) in enumerate(sweeps):
        base = p * n
        for t, q in enumerate(order):
            L[base + q] = avals[t]
            pos[base + q] = t
    return L, pos


def triple_crossings(n, L, pos):
    """The crossings through every vertex triple, read off left_table.

    Yields (a, b, row) for every a < b in lexicographic order, where
    row[c - b - 1] counts the 4-subsets {a, b, c, x} in convex position,
    for c > b.  Write L[a][c] for L[a * n + c], likewise pos, let abc be
    counterclockwise and m = n - 1.  Corner a sees
    W_a = (pos[a][c] - pos[a][b] - 1) mod m vertices inside its angle and
    V_a = W_a + 1 + L[a][c] - L[a][b] in the opposite cone, and likewise b
    (from c to a) and c (from a to b).  Of the seven regions of the three
    lines, I = (sum W + sum V - (n - 3)) / 2 vertices lie inside abc, and
    {a, b, c, x} crosses exactly when x lies beyond an edge: n - 3 - I -
    sum V of them.  With D_a = L[a][c] - L[a][b], D_b = L[b][a] - L[b][c]
    and D_c = L[c][b] - L[c][a], that is (3n - 18 - 4 sum W - 3 sum D) / 2.
    Every triple is read in the order a, b, c; for a clockwise one that
    turns every W into m - 2 - W and every D into -D, giving
    (4 sum W + 3 sum D - 9n + 18) / 2.  O(1) per triple, for point sets and
    realizable signatures alike.
    """
    m = n - 1
    ccw0 = 3 * n - 18
    cw0 = 9 * n - 18
    for a in range(n - 2):
        # row a of L and pos, and column a of pos: Qa[c] = pos[c][a]
        La, Pa, Qa = L[a * n:a * n + n], pos[a * n:a * n + n], pos[a::n]
        for b in range(a + 1, n - 1):
            Lb, Pb, Qb = L[b * n:b * n + n], pos[b * n:b * n + n], pos[b::n]
            lab, pab, pba = La[b], Pa[b], Pb[a]
            dl = Lb[a] - lab
            row = []
            for c in range(b + 1, n):
                wa = (Pa[c] - pab - 1) % m
                w = wa + (pba - Pb[c] - 1) % m + (Qb[c] - Qa[c] - 1) % m
                # 4 sum W + 3 sum D, with L[c][x] = n - 2 - L[x][c]
                s = 4 * w + 3 * (2 * (La[c] - Lb[c]) + dl)
                row.append((ccw0 - s) >> 1 if wa < lab else (s - cw0) >> 1)
            yield a, b, row


def removal_values(S):
    """cr(S minus p) for every vertex p, from one pass of angular sweeps.

    O(n^2 log n) total instead of n separate recounts.
    """
    pts = _points(S)
    n = len(pts)
    if n < 4:
        raise ValueError("need at least 4 points")
    scale = _key_scale(pts)
    cr, involved = crossings_involving(n, (_sweep(pts, x, *scale)[:2] for x in range(n)))
    return [cr - involved[p] for p in range(n)]


def evaluate_candidates(S, batch):
    """Crossing count of S with the anchor replaced by each candidate.

    Let T be S without the anchor, with m points.  The batch sweeps around
    every point of T once, keying directions by one exact scale K = M^2 + 1,
    where M is the larger span of T together with all candidates: every
    direction from a point of T to another point or to a candidate then has
    components of size at most M, so its folded key follows the angular
    order exactly and two keys are equal exactly when the directions are
    collinear (the argument of ``_key_scale``).

    A candidate q costs, per point v of T, one key for d = q - v and two
    bisections into v's sorted upper and lower key blocks.  They give a_v,
    the number of points of T in the open half turn after d, and the sum of
    window counts over the points before d, which is what the formula of
    ``crossings_involving`` needs for the triangles qvw containing a point.
    No sweep around q is needed for the triangles of T containing q: a point
    w of T other than v lies left of q->v exactly when it lies right of
    v->q, so v's window count around q is (m - 1) - a_v.  Total cost
    O(m^2 log m) for the tables plus O(m log m) per candidate.

    A candidate that breaks general position (it repeats a point of T, or a
    key equals a stored key, i.e. it lies on a line through two points of T)
    yields None instead of a count.
    """
    pts = _points(S)
    n = len(pts)
    h = batch.anchor_index
    if not 0 <= h < n:
        raise ValueError("anchor index out of range")
    T = pts[:h] + pts[h + 1:]
    m = n - 1
    if m < 3:
        raise ValueError("need at least 4 points")
    K, axis = _key_scale(T + list(batch.candidates))
    top = -axis  # above every key, so a bisection never runs off a block
    # a_v and (m - 1) - a_v both enter as C(., 2), so one table indexed by
    # either of them serves both.
    pair_terms = [j * (j - 1) // 2 + (m - 1 - j) * (m - 2 - j) // 2 for j in range(m)]
    tables = []
    windows = []
    for v in range(m):
        _, avals, up, low = _sweep(T, v, K, axis)
        windows += avals
        pref = _window_prefix(avals)
        ukeys = [k for k, _ in up]
        ukeys.append(top)
        lkeys = [k for k, _ in low]
        lkeys.append(top)
        tables.append((T[v][0], T[v][1], ukeys, lkeys, len(up), pref, pref[-1]))
    base = crossings_from_windows(m, windows) - m * comb(m - 1, 2)
    results = []
    for qx, qy in batch.candidates:
        total = base
        for vx, vy, ukeys, lkeys, nu, pref, tot in tables:
            dx = qx - vx
            dy = qy - vy
            if dy > 0:
                key = (-dx) * K // dy
                upper = True
            elif dy < 0:
                key = dx * K // (-dy)
                upper = False
            elif dx:
                key = axis
                upper = dx > 0
            else:
                break
            cu = bisect_left(ukeys, key)
            cl = bisect_left(lkeys, key)
            if ukeys[cu] == key or lkeys[cl] == key:
                break
            # Positions cu .. nu + cl - 1 lie after the upper fold of d and
            # before its lower fold: the half turn before d when d is lower,
            # the one after it when d is upper.  Their count is a_v or
            # (m - 1) - a_v.
            span = pref[nu + cl] - pref[cu]
            total += pair_terms[nu - cu + cl] + (tot - span if upper else span)
        else:
            results.append(total)
            continue
        results.append(None)
    return results
