"""Halving lines and halving matchings, geometric and combinatorial.

A halving line passes through one vertex (odd n) or two (even n) and leaves
equally many vertices in each open half-plane.  A halving matching assigns
one such line through every vertex, no line serving twice; it is the input
the doubling construction consumes.  For odd n a matching always exists; for
even n it may not, and NoMatching is an ordinary domain result.

The signature variants express lines as slots in the rotation around the
anchor: a pseudoline entering the circular order at one gap and leaving at
another.  For odd n the line is taken through the anchor and a near-halving
partner (sides (n-1)/2 and (n-3)/2); the partner sits just before the entry
slot, so it stays recoverable while the HalvingLine type keeps its
partner-only-when-even shape.  Partners are chosen so that no two vertices
pick each other, which the doubling step's crossing accounting relies on.
"""

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .geometry import DegenerateError, _key_scale, _points, _span, _sweep, orient
from .signatures import _rotation_windows, rotation


@dataclass(frozen=True)
class RotationSlot:
    """A gap between consecutive directions in the rotation around a vertex."""

    vertex: int
    gap_position: int

    def __post_init__(self):
        if self.gap_position < 0:
            raise ValueError("gap_position must be nonnegative")


@dataclass(frozen=True)
class HalvingLine:
    """A line through one or two vertices splitting the rest evenly.

    direction is an integer vector (dx, dy) for point sets, or a pair of
    RotationSlot for signatures.  partner is present exactly when n is even.
    """

    anchor: int
    partner: Optional[int]
    direction: tuple


@dataclass
class HalvingMatching:
    """One halving line through each vertex; injective on lines for even n."""

    assignments: dict


class NoMatching:
    """Domain result: the instance has no halving matching."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "NoMatching"

    def __bool__(self):
        return False


NO_MATCHING = NoMatching()


def _balancing_gaps(pts, v):
    """Representative directions of the balancing gaps around pts[v], odd n,
    counterclockwise from the positive x axis.

    A gap lies between consecutive events: the directions from pts[v] to the
    other points and their antipodes.  _sweep's sorted keyed list holds the
    upper half turn's events in order (an upper entry is a true direction, a
    lower one an antipode; keys never tie, since _sweep raises on a tie);
    the lower half turn is the same list negated.  With m = n - 1, window(q)
    points lie left just after q's true direction and m - window(q) just
    after its antipode.  A representative is the sum of the gap's two
    bounding event vectors.
    """
    m = len(pts) - 1
    cx, cy = pts[v]
    order, avals, keyed = _sweep(pts, v, *_key_scale(_span(pts)))
    window = dict(zip(order, avals))
    half = []
    for _, q, true in keyed:
        d = (pts[q][0] - cx, pts[q][1] - cy)
        half.append((d, window[q]) if true else ((-d[0], -d[1]), m - window[q]))
    events = half + [((-dx, -dy), m - left) for (dx, dy), left in half]
    reps = []
    for g, ((ax, ay), left) in enumerate(events):
        if 2 * left == m:
            bx, by = events[(g + 1) % len(events)][0]
            reps.append((ax + bx, ay + by))
    return reps


def _halving_pairs(n, sweeps):
    """The sorted pairs a < b whose window, the count left of a->b, is
    (n - 2) / 2, n even; sweeps yields each center's (order, avals)."""
    want = (n - 2) // 2
    pairs = []
    for a, (order, avals) in enumerate(sweeps):
        pairs += [(a, b) for b, w in zip(order, avals) if a < b and w == want]
    return sorted(pairs)


def halving_lines(S):
    """Every halving line of S, one representative per combinatorial class.

    Even n: all vertex pairs whose connecting line leaves (n-2)/2 points on
    each side.  Odd n: per vertex, one representative direction per
    balancing angular gap class (each undirected class spans two antipodal
    gaps; the representative with the counterclockwise-first orientation is
    kept).
    """
    pts = _points(S)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    if n % 2 == 0:
        return [
            HalvingLine(a, b, (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]))
            for a, b in _halving_pairs(n, S.sweeps())
        ]
    return [
        HalvingLine(v, None, (dx, dy))
        for v in range(n)
        for dx, dy in _balancing_gaps(pts, v)
        if dy > 0 or (dy == 0 and dx > 0)
    ]


def halving_direction(S, v):
    """An exact integer halving direction through vertex v, odd n.

    Scans gaps counterclockwise from the positive x-axis and returns the
    representative of the first balancing one; the line through pts[v] with
    this direction has (n-1)/2 points strictly on each side and passes
    through no other point.  One always exists: turning the line by a half
    turn swaps its sides, and each event moves one point across.
    """
    pts = _points(S)
    n = len(pts)
    if n % 2 == 0:
        raise ValueError("halving_direction needs odd n")
    if n < 3:
        raise ValueError("need at least 3 points")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    return _balancing_gaps(pts, v)[0]


def _max_line_matching(n, pairs):
    """Perfect matching of the n vertices to halving lines, by BFS
    augmenting paths.

    pairs lists the two vertices of each line, sorted; every vertex tries its
    lines in that order, so the result is deterministic.  Returns each
    vertex's partner on its line, or None when no perfect matching exists.
    """
    adj = [[] for _ in range(n)]
    for li, (a, b) in enumerate(pairs):
        adj[a].append(li)
        adj[b].append(li)
    owner = [None] * len(pairs)
    match_v = [None] * n
    for root in range(n):
        via = {}
        q = deque([root])
        free = None
        while q and free is None:
            u = q.popleft()
            for li in adj[u]:
                if li in via:
                    continue
                via[li] = u
                if owner[li] is None:
                    free = li
                    break
                q.append(owner[li])
        if free is None:
            return None  # a vertex without augmenting path stays unmatched
        li = free
        while li is not None:
            u = via[li]
            owner[li], match_v[u], li = u, li, match_v[u]
    return [sum(pairs[li]) - v for v, li in enumerate(match_v)]


def halving_matching(S):
    """A halving matching of S, or NoMatching.

    Odd n: every vertex gets the line from halving_direction (always
    succeeds).  Even n: maximum bipartite matching between vertices and the
    enumerated halving lines; NoMatching when it is not perfect.
    """
    pts = _points(S)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    if n % 2 == 1:
        return HalvingMatching(
            {v: HalvingLine(v, None, halving_direction(S, v)) for v in range(n)}
        )
    partner = _max_line_matching(n, _halving_pairs(n, S.sweeps()))
    if partner is None:
        return NO_MATCHING
    return HalvingMatching({
        v: HalvingLine(v, w, (pts[w][0] - pts[v][0], pts[w][1] - pts[v][1]))
        for v, w in enumerate(partner)
    })


def _acyclic_partners(rots, cands):
    """Pick one candidate position per vertex avoiding mutual pairs.

    cands[v] lists rotation positions in preference order; the chosen
    partners must never satisfy partner[partner[v]] == v, since a mutual
    pair would distort the doubling step's crossing count.  Greedy with a
    single-step repair: if every candidate of v already points back at v,
    one of them is redirected to an alternative first.
    """
    n = len(rots)
    partner = [None] * n
    pos_pick = [None] * n
    for v in range(n):
        pick = None
        for pos in cands[v]:
            if partner[rots[v][pos]] == v:
                continue
            pick = pos
            break
        if pick is None:
            for pos in cands[v]:
                q = rots[v][pos]
                for qpos in cands[q]:
                    alt = rots[q][qpos]
                    if alt != v and partner[alt] != q:
                        partner[q] = alt
                        pos_pick[q] = qpos
                        pick = pos
                        break
                if pick is not None:
                    break
        if pick is None:
            raise DegenerateError("could not avoid mutual near-halving partners")
        partner[v] = rots[v][pick]
        pos_pick[v] = pick
    return pos_pick


def halving_matching_sig(D):
    """A halving matching of a realizable signature, or NoMatching.

    Odd n: each vertex gets a pseudoline through itself and a near-halving
    partner, encoded as the slot pair just after the partner's position and
    the slot closing its window; partners with a (n-1)/2-element window are
    preferred, and no two vertices pick each other.  Even n: vertex pairs
    whose window is exactly (n-2)/2 are the halving pseudolines; maximum
    bipartite matching as in the geometric case.
    """
    n = D.n
    if n < 3:
        raise ValueError("need at least 3 vertices")
    m = n - 1
    if n % 2 == 1:
        hi = (n - 1) // 2
        lo = (n - 3) // 2
        rots = []
        windows = []
        cands = []
        for v, (rot, av) in enumerate(D.sweeps()):
            first = sorted((p for p in range(m) if av[p] == hi), key=lambda p: rot[p])
            second = sorted((p for p in range(m) if av[p] == lo), key=lambda p: rot[p])
            if not first and not second:
                raise DegenerateError(f"no near-halving partner around vertex {v}")
            rots.append(rot)
            windows.append(av)
            cands.append(first + second)
        picks = _acyclic_partners(rots, cands)
        assignments = {}
        for v in range(n):
            pos = picks[v]
            g = (pos + 1) % m
            g2 = (g + windows[v][pos]) % m
            assignments[v] = HalvingLine(
                v, None, (RotationSlot(v, g), RotationSlot(v, g2))
            )
        return HalvingMatching(assignments)
    want = (n - 2) // 2
    sweeps = list(D.sweeps())
    partner = _max_line_matching(n, _halving_pairs(n, sweeps))
    if partner is None:
        return NO_MATCHING
    assignments = {}
    for v, w in enumerate(partner):
        g = (sweeps[v][0].index(w) + 1) % m
        assignments[v] = HalvingLine(
            v, w, (RotationSlot(v, g), RotationSlot(v, (g + want) % m))
        )
    return HalvingMatching(assignments)


def slot_partner(D, line):
    """The second vertex on a signature halving line.

    For even n that is the explicit partner; for odd n it is the vertex
    sitting just before the entry slot in the anchor's rotation.
    """
    if line.partner is not None:
        return line.partner
    s1 = line.direction[0]
    rot = rotation(D, s1.vertex)
    return rot[(s1.gap_position - 1) % len(rot)]


def check_halving_line(S, line):
    """Verify a geometric halving line's side counts by direct orientation."""
    pts = _points(S)
    n = len(pts)
    a = pts[line.anchor]
    if line.partner is not None:
        b = pts[line.partner]
        through = {line.anchor, line.partner}
        want = (n - 2) // 2
        if tuple(line.direction) != (b[0] - a[0], b[1] - a[1]):
            return False
    else:
        dx, dy = line.direction
        b = (a[0] + dx, a[1] + dy)
        through = {line.anchor}
        want = (n - 1) // 2
    pos = neg = 0
    for j, p in enumerate(pts):
        if j in through:
            continue
        o = orient(a, b, p)
        if o == 0:
            return False
        if o > 0:
            pos += 1
        else:
            neg += 1
    return pos == want and neg == want


def check_halving_line_sig(D, line):
    """Verify a signature halving line's slot pair against the rotation."""
    s1, s2 = line.direction
    v = line.anchor
    if s1.vertex != v or s2.vertex != v:
        return False
    rot, av = _rotation_windows(D, v)
    m = len(rot)
    if not (0 <= s1.gap_position < m and 0 <= s2.gap_position < m):
        return False
    g, g2 = s1.gap_position, s2.gap_position
    arc = (g2 - g) % m
    q = rot[(g - 1) % m]
    if av[(g - 1) % m] != arc:
        return False
    if D.n % 2 == 0:
        return line.partner == q and arc == (D.n - 2) // 2
    return line.partner is None and {arc, m - 1 - arc} == {
        (D.n - 1) // 2,
        (D.n - 3) // 2,
    }
