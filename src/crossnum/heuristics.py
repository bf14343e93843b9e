"""Local-search heuristics over point sets and signatures, plus greedy shrinking.

All searches are seeded and deterministic: the same input and the same
``SearchBudget.rng_seed`` produce the same output drawing.  Flip search
draws its triples exactly as ``random.sample`` draws them (``_triples``),
so its outputs are those of a ``sample`` loop from the same seed.
Acceptance is never worse-than-current (``<=`` only), so the best crossing
count is monotone non-increasing over every run.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor, inf, lcm

from .geometry import (
    PointSet,
    _int_table,
    _Rotations,
    _span,
    crossings_from_windows,
    left_table,
    orient,
    removal_values,
    triple_crossings,
)
from .signatures import Signature, _keeps_realizable, require_realizable

_DIRECTION_RANGE = 10**9


@dataclass(frozen=True)
class SearchBudget:
    """Stopping rule for a heuristic run: wall-clock seconds and/or steps."""

    wall_time: float = inf
    max_steps: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.wall_time < 0:
            raise ValueError("wall_time must be non-negative")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.wall_time == inf and self.max_steps is None:
            raise ValueError("at least one of wall_time/max_steps must be finite")

    def exhausted(self, steps, start):
        if self.max_steps is not None and steps >= self.max_steps:
            return True
        return self.wall_time != inf and time.monotonic() - start >= self.wall_time


@dataclass
class CellWalkState:
    """Position of the moving vertex inside the arrangement of the others.

    ``current_point`` is an exact rational point lying in an open cell: it is
    never incident to a line through two of the fixed points.
    """

    moving_vertex: int
    current_point: tuple
    step_count: int = 0


def random_relocation(S, budget, progress=None):
    """Iteratively relocate random vertices to sampled nearby positions.

    Each step picks a vertex uniformly at random, samples n integer candidate
    positions uniformly from the square of half-side ``half`` around it, and
    accepts the best candidate whenever its crossing count does not exceed
    the current one (ties among candidates break toward the lowest index).
    Candidates that break general position are skipped.  ``half`` halves
    after 50 * n steps in a row without a strict improvement.  Returns the
    best set found.

    The sweeps around every point (``geometry._Rotations``) are built once
    and kept for the whole run: a step scores its batch against them with
    the vertex taken out, an accepted move re-sweeps around the moved vertex
    only, and the starting count comes from them too.  Their key scale
    covers the points together with the sampling square around every one of
    them (``half`` only shrinks); they are rebuilt only when a batch leaves
    it, after accepted moves have pushed a point outward.
    """
    n = S.n
    if n < 4:
        return S
    rng = random.Random(budget.rng_seed)
    xs = [p[0] for p in S]
    ys = [p[1] for p in S]
    # Starts at an integer proxy for the bounding-box diagonal (within a
    # factor sqrt(2)).
    half = (max(xs) - min(xs)) + (max(ys) - min(ys)) or 1

    tables = _Rotations(S, _span(S) + 2 * half)
    cur, cur_cr = S, tables.crossings
    best, best_cr = cur, cur_cr
    stall = 0
    steps = 0
    start = time.monotonic()
    while not budget.exhausted(steps, start):
        p = rng.randrange(n)
        px, py = cur[p]
        cands = tuple(
            (px + rng.randint(-half, half), py + rng.randint(-half, half))
            for _ in range(n)
        )
        if not tables.covers(cands):
            tables = _Rotations(cur, _span(cur) + 2 * half)
        counts = tables.evaluate(p, cands)
        pick, pick_cr = None, None
        for i, c in enumerate(counts):
            if c is not None and (pick_cr is None or c < pick_cr):
                pick, pick_cr = i, c
        steps += 1
        improved = False
        if pick is not None and pick_cr <= cur_cr:
            improved = pick_cr < cur_cr
            cur, cur_cr = cur.replace(p, cands[pick]), pick_cr
            tables.move(p, cands[pick], cur_cr)
            if cur_cr < best_cr:
                best, best_cr = cur, cur_cr
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= 50 * n:
                half = max(1, half // 2)
                stall = 0
        if progress is not None:
            progress(steps, cur_cr, best_cr)
    return best


def _left_delta(n, L, a, b, c):
    """Change in crossing count when the counterclockwise triangle abc turns.

    L is a flat left_table.  Each pair of the triangle moves its third
    vertex from the left to the right: with L(a, b) the count left of a->b,
    its C(L, 2) terms change by -(L(a, b) - 1) + L(b, a), and
    L(a, b) + L(b, a) = n - 2.  Exact whenever the drawing stays a point set
    or a realizable signature.
    """
    return 3 * (n - 1) - 2 * (L[a * n + b] + L[b * n + c] + L[c * n + a])


def _left_update(n, L, a, b, c):
    """Update L for the counterclockwise triangle abc turning clockwise."""
    for x, y in ((a, b), (b, c), (c, a)):
        L[x * n + y] -= 1
        L[y * n + x] += 1


def _ray_step(pts, others, cur, d):
    """First line crossed by the ray cur + t*d and a point in the next cell.

    Returns (a, b, midpoint) where (a, b) spans the first line crossed and
    midpoint is the ray point at the parameter of smallest denominator in the
    middle third between the first and second crossings (one unit past the
    first when the next cell is unbounded), so positions stay small.  Returns
    None when the ray crosses no line forward or hits an arrangement vertex
    exactly.

    No Fraction is made per line.  With cur = (X/w, Y/w) over one common
    denominator w and u = b - a, the ray meets the line through a and b at
    t = num / (w * den), where den = u x d and
    num = u_y (X - a_x w) - u_x (Y - a_y w), both negated when den < 0 so
    that den > 0.  Then t <= 0 is num <= 0, and two parameters compare as
    num * den' against num' * den (w cancels), ties with the first crossing
    tested before the second is updated.  Fractions are built only for the
    two smallest parameters and the landing point.
    """
    x, y = cur
    dx, dy = d
    w = lcm(x.denominator, y.denominator)
    X = x.numerator * (w // x.denominator)
    Y = y.numerator * (w // y.denominator)
    n1 = d1 = n2 = d2 = line = None
    for i, ai in enumerate(others):
        ax, ay = pts[ai]
        rx = X - ax * w
        ry = Y - ay * w
        for bi in others[i + 1 :]:
            bx, by = pts[bi]
            ux = bx - ax
            uy = by - ay
            den = ux * dy - uy * dx
            if den == 0:
                continue
            num = uy * rx - ux * ry
            if den < 0:
                num, den = -num, -den
            if num <= 0:
                continue
            if line is None or num * d1 < n1 * den:
                n2, d2 = n1, d1
                n1, d1, line = num, den, (ai, bi)
            elif num * d1 == n1 * den:
                return None
            elif n2 is None or num * d2 < n2 * den:
                n2, d2 = num, den
    if line is None:
        return None
    t1 = Fraction(n1, w * d1)
    if n2 is None:
        mid = t1 + 1
    else:
        t2 = Fraction(n2, w * d2)
        mid = _simplest_between((2 * t1 + t2) / 3, (t1 + 2 * t2) / 3)
    return line[0], line[1], (x + mid * dx, y + mid * dy)


def _simplest_between(lo, hi):
    """The rational of smallest denominator in the open interval (lo, hi), 0 <= lo.

    Stern-Brocot descent by whole continued-fraction terms (Graham, Knuth &
    Patashnik, *Concrete Mathematics*, section 4.5): while no integer lies in
    the interval, the answer is a + 1/y with a the common integer part and y
    the simplest rational in (1/(hi - a), 1/(lo - a)).
    """
    terms = []
    while True:
        a = floor(lo)
        if a + 1 < hi:
            x = Fraction(a + 1)
            break
        terms.append(a)
        if lo == a:
            x = Fraction(floor(1 / (hi - a)) + 1)
            break
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    for a in reversed(terms):
        x = a + 1 / x
    return x


def cell_walk(S, v, budget, mode="random", progress=None, on_state=None):
    """Walk vertex v through the cells of the arrangement of the other points.

    Every step crosses exactly one line of the arrangement spanned by pairs
    of the fixed points, flipping exactly one triple orientation, which one
    ``orient`` on the current point reads.  The crossing count starts from
    ``geometry.left_table`` of the n sweeps and changes by the O(1)
    left-count delta of that flip, exact because every step is a geometric
    move.  Positions are exact rationals; the best position visited is
    re-integerized by clearing denominators before returning.  A ray step
    (``_ray_step``) costs C(n - 1, 2) integer multiply-compares, one per
    line, and O(1) Fractions.  ``mode`` is
    "random" (take the sampled direction) or "greedy" (sample several
    directions, take the best step).
    ``on_state`` receives (state, count) after each step, for replay and
    verification.
    """
    n = S.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    if mode not in ("random", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 4:
        return S
    rng = random.Random(budget.rng_seed)
    pts = [tuple(p) for p in S]
    others = [u for u in range(n) if u != v]
    L = left_table(n, S.sweeps())[0]
    cr = crossings_from_windows(n, L)
    state = CellWalkState(v, (Fraction(pts[v][0]), Fraction(pts[v][1])))
    start_pos = state.current_point
    best_pos, best_cr = start_pos, cr
    start = time.monotonic()
    while not budget.exhausted(state.step_count, start):
        tries = 3 if mode == "greedy" else 1
        found = []
        while not found:
            for _ in range(tries):
                dx = rng.randint(-_DIRECTION_RANGE, _DIRECTION_RANGE)
                dy = rng.randint(-_DIRECTION_RANGE, _DIRECTION_RANGE)
                if dx == 0 and dy == 0:
                    continue
                hit = _ray_step(pts, others, state.current_point, (dx, dy))
                if hit is not None:
                    a, b, pos = hit
                    tri = (a, b, v) if orient(pts[a], pts[b], state.current_point) > 0 else (b, a, v)
                    found.append((_left_delta(n, L, *tri), len(found), tri, pos))
        delta, _, tri, pos = min(found)
        _left_update(n, L, *tri)
        cr += delta
        state.current_point = pos
        state.step_count += 1
        if cr < best_cr:
            best_pos, best_cr = pos, cr
        if on_state is not None:
            on_state(state, cr)
        if progress is not None:
            progress(state.step_count, cr, best_cr)
    if best_pos == start_pos:
        return S
    scale = lcm(best_pos[0].denominator, best_pos[1].denominator)
    out = [(x * scale, y * scale) for x, y in pts]
    out[v] = (
        int(best_pos[0] * scale),
        int(best_pos[1] * scale),
    )
    return PointSet(tuple(out))


def _triples(rng, n):
    """Endless sorted triples of distinct vertices in 0..n - 1: each is
    ``sorted(rng.sample(range(n), 3))``, drawn by the same ``getrandbits``
    calls without sample's per-call overhead.

    sample's ``_randbelow(m)`` redraws ``getrandbits(m.bit_length())`` until
    the value is below m.  For a population of at most 21 (3 picks) sample
    draws positions in a pool below n, n - 1 and n - 2 in turn, moving the
    pool's last member into each vacancy: the first pick x leaves n - 1 at
    position x, and the second b leaves at position b what position n - 2
    held.  Above 21 it draws below n until it meets a vertex not picked
    yet.
    """
    bits = rng.getrandbits
    k0, k1, k2 = n.bit_length(), (n - 1).bit_length(), (n - 2).bit_length()
    pool = n <= 21
    while True:
        x = bits(k0)
        while x >= n:
            x = bits(k0)
        if pool:
            b = bits(k1)
            while b >= n - 1:
                b = bits(k1)
            c = bits(k2)
            while c >= n - 2:
                c = bits(k2)
            y = n - 1 if b == x else b
            if c == b:
                z = n - 1 if x == n - 2 else n - 2
            else:
                z = n - 1 if c == x else c
        else:
            y = bits(k0)
            while y >= n or y == x:
                y = bits(k0)
            z = bits(k0)
            while z >= n or z == x or z == y:
                z = bits(k0)
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        yield x, y, z


def sig_flip_search(D, budget, progress=None):
    """Flip random triple orientations, keeping realizable non-worsening flips.

    Each step picks one uniformly random triple, the draws of
    ``random.sample`` (``_triples``); its flip is kept when the flipped
    signature is still realizable and the new crossing count does not
    exceed the current one.  Realizability comes first, from the
    triangular-cell test (``signatures._keeps_realizable``, the rule of
    ``realizable_after_flip``), which few triples pass; only those read
    their sign and score the flip.  The left table is the bit count of
    every sign row (``windows()``, row (v, x) at v * n + x, no rotation
    sorted), the count starts from it, and a flip changes it by an O(1)
    left-count delta; the table changes in six entries per kept flip.
    The delta is exact whenever the flip keeps the signature realizable,
    and only such flips are kept, so every decision equals the one a
    recount would give.  The input must be realizable, checked once by
    ``require_realizable`` (ValueError otherwise); the result then is as
    well, and is marked so.
    """
    require_realizable(D)
    cur = D.copy()
    n = cur.n
    L = list(cur.windows())
    cr = crossings_from_windows(n, L)
    best_cr = cr
    draws = _triples(random.Random(budget.rng_seed), n)
    steps = 0
    start = time.monotonic()
    while not budget.exhausted(steps, start):
        i, j, k = next(draws)
        steps += 1
        if _keeps_realizable(cur, i, j, k):
            tri = (i, j, k) if cur.sign(i, j, k) > 0 else (i, k, j)
            delta = _left_delta(n, L, *tri)
            if delta <= 0:
                cur._flip_inplace((i, j, k), realizable=True)
                _left_update(n, L, *tri)
                cr += delta
                best_cr = min(best_cr, cr)
        if progress is not None:
            progress(steps, cr, best_cr)
    return cur


def _pair_tables(n, rows):
    """Crossing count and the crossings through each vertex and pair.

    rows are triple_crossings' (a, b, row) triples.  A crossing through a
    and b has two more endpoints, so inv2[a * n + b] (a < b; the entries on
    and below the diagonal stay 0) is half the sum over the triples through
    a and b; a crossing through a has three more, so inv[a] is a third of
    the sum of a's pair entries; every crossing has four endpoints, so
    cr = sum(inv) / 4.  Returns (cr, inv, inv2), inv2 a flat n * n table
    (``geometry._int_table``).
    """
    inv2 = _int_table(n)
    for a, b, row in rows:
        an, bn = a * n, b * n
        inv2[an + b] += sum(row)
        for c, t in enumerate(row, b + 1):
            inv2[an + c] += t
            inv2[bn + c] += t
    inv = [0] * n
    for a, b in combinations(range(n), 2):
        x = inv2[a * n + b] // 2
        inv2[a * n + b] = x
        inv[a] += x
        inv[b] += x
    inv = [x // 3 for x in inv]
    return sum(inv) // 4, inv, inv2


def _best_removal_tuple(drawing, k):
    """The size-k vertex subset whose removal leaves the fewest crossings, k = 2 or 3.

    Every subset is scored in O(1) by inclusion-exclusion over the crossings
    through its vertices, pairs and triple, which triple_crossings reads off
    left_table of the n rotation sweeps: O(n^3) in all.  Ties break toward
    the lexicographically least subset.  A signature must be realizable.
    """
    n = drawing.n
    rows = triple_crossings(n, *left_table(n, drawing.sweeps()))
    if k == 3:
        rows = list(rows)  # read twice: for the pair tables, then to score
    cr, inv, inv2 = _pair_tables(n, rows)
    if k == 2:
        pairs = combinations(range(n), 2)
        return min((cr - inv[a] - inv[b] + inv2[a * n + b], (a, b)) for a, b in pairs)[1]
    best = None
    for a, b, row in rows:
        base = cr - inv[a] - inv[b] + inv2[a * n + b]
        an, bn = a * n, b * n
        for c, t in enumerate(row, b + 1):
            score = base - inv[c] + inv2[an + c] + inv2[bn + c] - t
            if best is None or score < best[0]:
                best = (score, (a, b, c))
    return best[1]


def shrink(drawing, target_n, tuple_size=1, emit=None):
    """Greedily remove vertex tuples until the drawing has target_n vertices.

    At each step the size-``tuple_size`` subset minimizing the remaining
    crossing count is removed (lexicographically least among ties, truncated
    on the final step when the remaining descent is smaller).  Size 1 uses
    removal values directly, O(n^2 log n) per step; sizes 2 and 3 score
    every subset from the crossings through each vertex, pair and triple,
    read off the n rotation sweeps in O(n^3) per step
    (``geometry.triple_crossings``).  Works on point sets and realizable
    signatures alike: a signature is checked once (``require_realizable``),
    since deleting vertices keeps it realizable, and a non-realizable one
    raises ValueError before the first step.  Every intermediate drawing is
    passed to ``emit`` when given.
    """
    if tuple_size not in (1, 2, 3):
        raise ValueError("tuple_size must be 1, 2 or 3")
    if target_n < 3:
        raise ValueError("target_n must be at least 3")
    cur = drawing
    if cur.n <= target_n:
        raise ValueError("drawing already has at most target_n vertices")
    if isinstance(cur, Signature):
        require_realizable(cur)
    while cur.n > target_n:
        k = min(tuple_size, cur.n - target_n)
        if k == 1:
            vals = removal_values(cur)
            sel = (min(range(cur.n), key=lambda x: (vals[x], x)),)
        else:
            sel = _best_removal_tuple(cur, k)
        for x in sorted(sel, reverse=True):
            cur = cur.delete(x)
        if emit is not None:
            emit(cur)
    return cur
