"""Exact integer geometry for straight-line drawings of complete graphs.

Every predicate and counter works on unbounded Python integers and never
rounds.  A drawing is a sequence of (x, y) integer pairs in general position
(no three points collinear).  The number of edge crossings of the complete
graph drawn with straight edges equals the number of 4-point subsets in
convex position, which is what the counters compute.

The fast counter uses one angular sweep per point.  Around a sweep center,
each direction to another point is folded into the upper half turn and
sorted by an integer floor of its scaled slope, so collinear points show up
as key collisions and everything stays in pure integer arithmetic.  A key
has two levels (``_key_scale``): a one-word key sorts the directions first,
and the exact key, scaled once for the whole point set, is computed only for
directions whose one-word keys tie.  A direction and its opposite share a
key, so the sweeps of all centers key each pair of points once
(``_sweep_pass``).  The sweeps also give a drawing's sign rows, which side
of each directed line every other point lies on (``sign_rows``).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb
from operator import add, itemgetter, xor


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
    """An indexed set of integer points; indices are stable identities.

    A rectilinear drawing: ``kind``, ``windows``, ``sweeps`` and ``delete``
    are shared with ``signatures.Signature``, so the counters take either
    kind.
    """

    kind = "rect"
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

    def windows(self):
        """The avals of every sweep (``sweeps``), center after center: the
        window count of every ordered pair of points."""
        return chain.from_iterable(avals for _, avals in self.sweeps())

    def sweeps(self):
        """Each point's (order, avals) of ``sweep_around``, in index order,
        all under one key scale; lazy, so one sweep is held at a time, plus
        the keys handed on to later sweeps, at most floor(n/2) * ceil(n/2).

        Each pair of points is keyed once (``_sweep_pass``).  The sweeps
        sort by one-word keys first when the exact keys are at least four
        words wide, until one center redoes more than half of its directions
        at full scale (as the sets built by doubling do); the rest of the set
        then uses full-scale keys (``_key_scale``).
        """
        pts = self.points
        shift, axis = _key_scale(_span(pts))
        return map(_SWEEP, _sweep_pass(pts, shift, axis, shift >= 4 * _WORD))


@dataclass(frozen=True)
class CandidateBatch:
    """Replacement positions to try for one vertex (the anchor)."""

    anchor_index: int
    candidates: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(tuple(q) for q in self.candidates))


def _points(S):
    return [tuple(p) for p in S]


def _span(pts):
    """The larger of the x- and y-span of pts."""
    xs, ys = zip(*pts)
    return max(max(xs) - min(xs), max(ys) - min(ys))


_WORD = 64  # fraction bits of the one-word sweep key
_KEY = itemgetter(0)  # the key of a (key, index, upper) entry
_UP = itemgetter(2)  # its upper flag
_SWEEP = itemgetter(0, 1)  # (order, avals) of a ``_sweep_pass`` entry


def _key_scale(span):
    """Key shift s and axis key for every direction of a set of the given span.

    Write b = span.bit_length(), so every direction component is below 2^b
    in size.  Two distinct folded slopes -dx/dy then differ by at least
    1/(dy1 * dy2) > 2^-2b, so flooring them scaled by K = 2^s with s = 2b
    keeps them on distinct keys, and a key is one shift and one floor
    division.  Every such key lies strictly between -2^3b and 2^3b; the
    axis key is -2^3b.

    That exact key divides a 3b-bit number by a b-bit one.  Most sets tell
    their directions apart with far fewer than 2b fraction bits, so a sweep
    can sort first by the one-word key, the floor of the slope scaled by
    2^64, with axis key -2^(b + 64) below every other: each is the exact key
    shifted right by s - 64.  Flooring is monotone, so distinct one-word
    keys order their slopes strictly, and only directions whose one-word
    keys tie need their exact keys.  ``PointSet.sweeps`` uses one-word keys
    when s >= 256, and full-scale keys for the rest of a set once one
    center redoes more than half of its directions.  The relocation tables
    (``_Rotations``) build their sweeps with full-scale keys, keep beside
    them each key shifted right by s - 64, and place every candidate
    direction by its one-word key, computing the exact key only on a tie.
    """
    bits = span.bit_length()
    return 2 * bits, -(1 << 3 * bits)


def _keyed(pts, center, indices, shift, axis):
    """(key, index, upper) of each given index's direction around pts[center].

    A direction (dx, dy) is folded into the upper half turn and keyed by
    (-dx << shift) // dy, so a direction and its opposite share a key;
    horizontal directions get the axis key, and upper says whether the
    direction itself lies in the upper half turn.  The center is passed
    over; any other copy of it raises DegenerateError.
    """
    cx, cy = pts[center]
    out = []
    for idx in indices:
        x, y = pts[idx]
        dy = y - cy
        if dy:
            out.append((((cx - x) << shift) // dy, idx, dy > 0))
        elif x != cx:
            out.append((axis, idx, x > cx))
        elif idx != center:
            raise DegenerateError("repeated point at index %d" % idx)
    return out


def _ties(keyed):
    """Positions t of a sorted keyed list whose key equals the one before."""
    return [t for t in range(1, len(keyed)) if keyed[t][0] == keyed[t - 1][0]]


def _ordered(keyed):
    """sweep_around's (order, avals) from a sorted keyed list.

    keyed lists ``_keyed``'s (key, index, upper) of every other point in
    sorted order: the upper half turn's events counterclockwise, each a
    point's direction (upper) or its antipode.
    """
    # The i-th upper direction has in its window the later upper directions
    # and the j lower points whose antipodes come before it, nu - 1 - (i - j);
    # symmetrically nl - 1 + (i - j) for the j-th lower point.
    nu = sum(map(_UP, keyed)) - 1
    nl = len(keyed) - nu - 2
    upper = []
    lower = []
    uavals = []
    lavals = []
    c = 0
    for _, idx, up in keyed:
        if up:
            upper.append(idx)
            uavals.append(nu - c)
            c += 1
        else:
            lower.append(idx)
            lavals.append(nl + c)
            c -= 1
    return upper + lower, uavals + lavals


def _sweep(pts, center, shift, axis):
    """The sweep of sweep_around under a given key scale, plus its sorted keys.

    Returns (order, avals, keyed), keyed as in ``_ordered``, at full scale.
    shift and axis must come from _key_scale of a span at least that of
    pts.  Equal full-scale keys are equal or opposite directions, so they
    raise DegenerateError.
    """
    keyed = sorted(_keyed(pts, center, range(len(pts)), shift, axis), key=_KEY)
    if _ties(keyed):
        raise DegenerateError("collinear points through sweep center")
    return (*_ordered(keyed), keyed)


def _sweep_pass(pts, shift, axis, coarse):
    """The sweeps of every center in index order, keying each pair once.

    Yields (order, avals, keyed, coarse, redone) per center: ``_sweep``'s
    three, whether the center sorted by one-word keys, and how many of its
    directions it keyed again at full scale.

    Around v the key of w is ((x_v - x_w) << s) // (y_w - y_v).  Around w
    the key of v negates both operands, so it is the same integer, and the
    two upper flags are complements.  So the sweep around v keys every
    later point and hands each key on to that point's sweep, and reads the
    keys of every earlier point from what earlier sweeps handed on.  A key
    is dropped once read, so at most floor(n/2) * ceil(n/2) are held.

    With coarse set the keys are one-word keys (``_key_scale``).  Only the
    runs of equal one-word keys are keyed again at full scale and re-sorted,
    and keyed keeps one-word keys outside the runs.  Once a center redoes
    more than half of its directions, the rest of the pass uses full-scale
    keys, and the keys already handed on are keyed again.  order and avals
    are the same either way, and equal full-scale keys raise
    DegenerateError.
    """
    n = len(pts)
    # keys[w] and ups[w] list, for u = 0, 1, ... in turn, the key of u
    # around w and whether u lies in w's upper half turn.
    keys = [[] for _ in range(n)]
    ups = [[] for _ in range(n)]
    ks, kaxis = (_WORD, axis >> (shift - _WORD)) if coarse else (shift, axis)
    for v in range(n):
        later = _keyed(pts, v, range(v + 1, n), ks, kaxis)
        for key, w, up in later:
            keys[w].append(key)
            ups[w].append(not up)
        keyed = [*zip(keys[v], range(v), ups[v]), *later]
        keys[v] = ups[v] = None
        keyed.sort(key=_KEY)
        ties = _ties(keyed)
        redone = 0
        if ties and coarse:
            # Exact keys keep the order of distinct one-word keys, so the
            # members of every run sort together back into the runs' positions.
            run = sorted(set(ties).union(t - 1 for t in ties))
            exact = sorted(_keyed(pts, v, [keyed[t][1] for t in run], shift, axis), key=_KEY)
            for t, e in zip(run, exact):
                keyed[t] = e
            ties = _ties(exact)
            redone = len(run)
        if ties:
            raise DegenerateError("collinear points through sweep center")
        order, avals = _ordered(keyed)
        yield order, avals, keyed, coarse, redone
        if coarse and 2 * redone > n - 1:
            coarse = False
            ks, kaxis = shift, axis
            for w in range(v + 1, n):
                keys[w] = [key for key, _, _ in _keyed(pts, w, range(v + 1), shift, axis)]


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
    return _sweep(pts, center, *_key_scale(_span(pts)))[:2]


def _choose2(n):
    """C(a, 2) for every window count a < n, as a list indexed by a."""
    return [a * (a - 1) // 2 for a in range(n)]


def crossings_from_windows(n, windows):
    """Crossing count of a drawing of K_n from all of its window counts.

    windows holds, in any order, the window count of every ordered pair
    (p, q): the number of vertices in the open half turn counterclockwise
    after q around p, which lie left of p->q, so below n; zeros may be
    mixed in.  Each C(window, 2) is read off ``_choose2``.  A
    4-subset is non-convex exactly when one vertex lies inside the triangle
    of the other three, and of the C(n - 1, 3) triangles around p, all but
    the sum over q of C(window(p, q), 2) contain p.  That gives the k-edge
    identity cr = C(n, 4) - n * C(n - 1, 3) + the sum of C(window, 2)
    (Lovasz, Vesztergombi, Wagner & Welzl, Convex quadrilaterals and k-sets,
    2004; Abrego & Fernandez-Merchant, Graphs Combin. 21, 2005), for point
    sets and realizable signatures alike.
    """
    return comb(n, 4) - n * comb(n - 1, 3) + sum(map(_choose2(n).__getitem__, windows))


def count_crossings(D):
    """Exact crossing count of a point set or a realizable signature.

    D's window counts (``windows()``), summed by crossings_from_windows:
    a point set's n sweeps, O(n^2 log n), or a signature's n^2 row bit
    counts.  A signature must be realizable (``is_realizable``): its windows
    mean nothing otherwise, and no check is made here.
    """
    if D.n < 3:
        raise ValueError("need at least 3 points")
    return crossings_from_windows(D.n, D.windows())


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


def _containing(m, pref, t):
    """Triangles through one point around a center that contain the center.

    pref holds the prefix sums of the center's m window counts in rotation
    order, and t is the point's position.  With a its window, the k = m - 1 - a
    positions cyclically before t are the points whose window contains it.
    Of the C(m - 1, 2) triangles with the point as a vertex and two further
    points, those that miss the center lie in an open half turn, led
    counterclockwise by one of their vertices: C(a, 2) are led by the point
    itself, and the window sum over that arc, minus k, by a point of the arc.
    The rest contain the center.
    """
    a = pref[t + 1] - pref[t]
    s = t + a + 1 - m
    arcsum = pref[t] - pref[s] if s >= 0 else pref[t] + pref[m] - pref[s + m]
    return (m - 1) * (m - 2) // 2 - a * (a - 1) // 2 - (arcsum - (m - 1 - a))


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


def sign_rows(n, sweeps):
    """Every sign row of a drawing, from its sweeps.

    sweeps yields, for each center v in index order, its (order, avals).
    Returns rows with rows[v][x] an n-bit int whose bit y is set when y lies
    left of v->x, the sign row of ``signatures.Signature`` (bits v and x
    are 0).  Around v the vertices left of v->x are the avals[t] that follow
    x = order[t] in the rotation, so with P[k] the XOR of the bits of the
    first k entries of the rotation taken twice around, the row is
    P[t + 1 + avals[t]] ^ P[t + 1]: O(n) int operations per center, no
    orientation tested.
    """
    rows = []
    for order, avals in sweeps:
        bits = [1 << x for x in order]
        P = list(accumulate(bits + bits, xor, initial=0))
        row = [0] * n
        ends = map(P.__getitem__, map(add, range(1, n), avals))
        for x, r in zip(order, map(xor, ends, P[1:n])):
            row[x] = r
        rows.append(row)
    return rows


def removal_values(D):
    """cr(D minus p) for every vertex p of a point set or a realizable
    signature, from one pass over its sweeps; O(n^2 log n) in all.

    cr(D - p) is cr(D) minus the crossings involving p: the 4-subsets of p
    and three others in convex position.  Those are the triangles of three
    others that miss p, the sum of C(window, 2) around p, minus for every
    other center x the triangles through p that contain x (``_containing``).
    The sweeps are streamed, so no more than one is held.
    """
    n = D.n
    if n < 4:
        raise ValueError("need at least 4 points")
    m = n - 1
    involved = [0] * n
    choose2 = _choose2(n).__getitem__

    def windows():
        for x, (order, avals) in enumerate(D.sweeps()):
            pref = list(accumulate(avals, initial=0))
            involved[x] += sum(map(choose2, avals))
            for t, p in enumerate(order):
                involved[p] -= _containing(m, pref, t)
            yield from avals

    cr = crossings_from_windows(n, windows())
    return [cr - i for i in involved]


def _arc_add(w, t, k, d):
    """A copy of w with d added to the k entries cyclically before position t."""
    s = t - k
    if s >= 0:
        return w[:s] + [a + d for a in w[s:t]] + w[t:]
    s += len(w)
    return [a + d for a in w[:t]] + w[t:s] + [a + d for a in w[s:]]


def _without(keys, words, i):
    """A key block and its one-word image without entry i, as new lists; one
    list when the image is the block itself."""
    out = keys[:i] + keys[i + 1:]
    return out, out if words is keys else words[:i] + words[i + 1:]


def _with(keys, words, i, key, word):
    """A key block and its one-word image with key and word inserted at i, as
    new lists; one list when the image is the block itself."""
    out = keys[:i] + [key] + keys[i:]
    return out, out if words is keys else words[:i] + [word] + words[i:]


class _Rotations:
    """The angular sweeps around every point of a drawing, kept across moves.

    Around each center the tables hold the sorted full-scale keys of its
    sweep (one ``_sweep_pass`` over all centers, ``_sweep`` after a move),
    split into upper and lower blocks, each closed by a sentinel above every
    key, the one-word image of each block (every key shifted right by
    ``wshift`` = s - 64, which floors the slope at scale 2^64; the block
    itself when s <= 64), the window counts in rotation order with their
    prefix sums, and every other point's key and block.  The keys use
    ``_key_scale(span)``, so they stay exact while the points and the
    candidates span less than ``limit``, the power of two above span
    (``covers``).

    A batch of candidates for an anchor p is scored without rebuilding any
    sweep.  Around each other center v, p's stored key finds its position
    by one bisection.  The points whose window contains p are the arc of
    positions in the half turn before it, so taking p out is one deletion
    from a key block and its image and a decrement over that arc: small-int
    work, once per center and batch, after which every candidate is scored
    as against a fresh sweep of the drawing without p.  cr(S - p) is cr(S)
    minus p's involvement, the sum of C(window, 2) around p minus
    ``_containing`` of p around every other center.  Moving p re-sweeps
    around p only; around every other center p's key is deleted and
    inserted again (a direction and its opposite share a key, so it is read
    off p's new sweep), with the same arc updates.
    """

    def __init__(self, pts, span):
        self.pts = [tuple(p) for p in pts]
        self.limit = 1 << span.bit_length()
        self.shift, self.axis = _key_scale(span)
        self.wshift = max(0, self.shift - _WORD)
        sweeps = _sweep_pass(self.pts, self.shift, self.axis, False)
        self.centers = [self._center(avals, keyed) for _, avals, keyed, _, _ in sweeps]
        windows = chain.from_iterable(c[4] for c in self.centers)
        self.crossings = crossings_from_windows(len(self.pts), windows)

    def _center(self, avals, keyed):
        """One center's tables from its full-scale sweep."""
        where = [None] * len(self.pts)
        for key, w, upper in keyed:
            where[w] = (key, upper)
        top = -self.axis
        ukeys = [key for key, _, upper in keyed if upper] + [top]
        lkeys = [key for key, _, upper in keyed if not upper] + [top]
        ws = self.wshift
        uw = [key >> ws for key in ukeys] if ws else ukeys
        lw = [key >> ws for key in lkeys] if ws else lkeys
        return ukeys, lkeys, uw, lw, avals, list(accumulate(avals, initial=0)), where

    def covers(self, candidates):
        """True when the points and the candidates span less than limit."""
        return _span(self.pts + list(candidates)) < self.limit

    def _drop(self, v, p):
        """Center v's key blocks, their images and window counts without p,
        and p's position.

        The block p leaves, its image and the window counts are new lists."""
        ukeys, lkeys, uw, lw, avals, _, where = self.centers[v]
        key, upper = where[p]
        if upper:
            t = bisect_left(ukeys, key)
            ukeys, uw = _without(ukeys, uw, t)
        else:
            i = bisect_left(lkeys, key)
            t = len(ukeys) - 1 + i
            lkeys, lw = _without(lkeys, lw, i)
        w = _arc_add(avals, t, len(avals) - 1 - avals[t], -1)
        del w[t]
        return ukeys, lkeys, uw, lw, w, t

    def evaluate(self, anchor, candidates):
        """Crossing count of the drawing with the anchor moved to each candidate.

        With the anchor taken out, m points stay fixed.  A candidate q costs,
        per fixed point v, one one-word key for d = q - v, the floor of d's
        exact key shifted right by wshift, and two bisections into the
        one-word images of v's key blocks.  Flooring is monotone, so the
        one-word keys are a monotone image of the exact keys: a one-word key
        equal to no stored one is placed where its exact key would be, and
        no stored exact key can equal it.  Only on a tie is the exact key
        computed, and bisected within the tied run of each block.  The
        positions give a_v, the number of fixed points in the open half turn
        after d, and the window sum over the points before d, which is what
        ``_containing`` needs for the triangles qvw containing a point.  No
        sweep around q is needed for the triangles containing q: a point w
        other than v lies left of q->v exactly when it lies right of v->q,
        so v's window around q is (m - 1) - a_v.  A candidate that repeats a
        fixed point, or whose exact key equals a stored key (it lies on a
        line through two fixed points), yields None.  The caller checks
        ``covers`` first.
        """
        m = len(self.pts) - 1
        shift = self.shift
        axis = self.axis
        ws = shift - self.wshift
        axw = axis >> self.wshift
        choose2 = _choose2(m + 1)
        cr = self.crossings - sum(map(choose2.__getitem__, self.centers[anchor][4]))
        views = []
        for v, (x, y) in enumerate(self.pts):
            if v != anchor:
                ukeys, lkeys, uw, lw, w, t = self._drop(v, anchor)
                cr += _containing(m, self.centers[v][5], t)
                pref = list(accumulate(w, initial=0))
                views.append((x, y, x << ws, ukeys, lkeys, uw, lw, len(ukeys) - 1, pref, pref[-1]))
        # a_v and (m - 1) - a_v both enter as C(., 2), so one table indexed by
        # either of them serves both.
        pair_terms = [choose2[j] + choose2[m - 1 - j] for j in range(m)]
        base = cr - m * comb(m - 1, 2)
        results = []
        for qx, qy in candidates:
            total = base
            qxw = qx << ws
            for vx, vy, vxw, ukeys, lkeys, uw, lw, nu, pref, tot in views:
                # the one-word key (-dx << ws) // dy, for either sign of dy as in _keyed
                dy = qy - vy
                if dy:
                    kw = (vxw - qxw) // dy
                    upper = dy > 0
                elif qx != vx:
                    kw = axw
                    upper = qx > vx
                else:
                    break
                cu = bisect_left(uw, kw)
                cl = bisect_left(lw, kw)
                if uw[cu] == kw or lw[cl] == kw:
                    key = ((vx - qx) << shift) // dy if dy else axis
                    cu = bisect_left(ukeys, key, cu, bisect_right(uw, kw, cu))
                    cl = bisect_left(lkeys, key, cl, bisect_right(lw, kw, cl))
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

    def move(self, p, q, crossings):
        """Move point p to q, which must keep general position, leaving a
        drawing with the given crossing count."""
        self.pts[p] = tuple(q)
        self.centers[p] = own = self._center(*_sweep(self.pts, p, self.shift, self.axis)[1:])
        for v in range(len(self.pts)):
            if v == p:
                continue
            key, upper = own[6][v]
            ukeys, lkeys, uw, lw, w, _ = self._drop(v, p)
            nu = len(ukeys) - 1
            cu = bisect_left(ukeys, key)
            cl = bisect_left(lkeys, key)
            if upper:  # v lies in p's upper half turn, so p in v's lower one
                t = nu + cl
                a = len(lkeys) - 1 - cl + cu
                lkeys, lw = _with(lkeys, lw, cl, key, key >> self.wshift)
            else:
                t = cu
                a = nu - cu + cl
                ukeys, uw = _with(ukeys, uw, cu, key, key >> self.wshift)
            w = _arc_add(w, t, len(w) - a, 1)
            w.insert(t, a)
            where = self.centers[v][6]
            where[p] = (key, not upper)
            self.centers[v] = (ukeys, lkeys, uw, lw, w, list(accumulate(w, initial=0)), where)
        self.crossings = crossings


def evaluate_candidates(S, batch):
    """Crossing count of S with the anchor replaced by each candidate.

    A one-shot build of the relocation tables (``_Rotations``) for S,
    queried with the whole batch.  The key scale covers S together with all
    candidates: every direction from a point of S to another point or to a
    candidate then has components below the scale's bound, so its folded
    key follows the angular order exactly and two keys are equal exactly
    when the directions are collinear (``_key_scale``).  Total cost
    O(n^2 log n) for the n sweeps of S plus O(n log n) per candidate.  S
    must be in general position (DegenerateError otherwise).

    A candidate that breaks general position (it repeats a point of S
    without the anchor, or lies on a line through two of them) yields None
    instead of a count.
    """
    pts = _points(S)
    n = len(pts)
    h = batch.anchor_index
    if not 0 <= h < n:
        raise ValueError("anchor index out of range")
    if n < 4:
        raise ValueError("need at least 4 points")
    return _Rotations(pts, _span(pts + list(batch.candidates))).evaluate(h, batch.candidates)
