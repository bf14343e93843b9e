"""Shared helpers for the test suite."""

import random
from itertools import combinations

from crossnum.geometry import PointSet, orient

# integer convex polygons in general position, indexed by n
CONVEX = {
    3: ((0, 0), (4, 0), (0, 4)),
    4: ((0, 0), (10, 1), (11, 9), (1, 10)),
    5: ((0, 0), (10, 1), (13, 9), (5, 14), (-3, 8)),
    6: ((8, 0), (5, 7), (-3, 8), (-8, 1), (-5, -7), (3, -8)),
    7: ((9, 0), (6, 7), (-2, 9), (-8, 4), (-9, -3), (-4, -8), (4, -8)),
    8: ((9, 0), (7, 6), (1, 9), (-6, 7), (-9, 1), (-7, -6), (-1, -9), (6, -7)),
    9: (
        (9, 0),
        (7, 6),
        (2, 9),
        (-5, 8),
        (-9, 2),
        (-9, -4),
        (-4, -8),
        (3, -9),
        (8, -5),
    ),
}


def convex_points(n):
    return PointSet(CONVEX[n])


def general_position(pts):
    return all(orient(a, b, c) != 0 for a, b, c in combinations(pts, 3))


def rand_general(rng, n, lim=60):
    """A random integer point set in general position."""
    while True:
        pts = []
        while len(pts) < n:
            p = (rng.randint(-lim, lim), rng.randint(-lim, lim))
            if p in pts:
                continue
            if any(
                orient(pts[i], pts[j], p) == 0
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            ):
                break
            pts.append(p)
        else:
            return PointSet(tuple(pts))


def horizontal_pairs(rng, pairs, lim):
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


def rand_rng(seed):
    return random.Random(seed)


def _selfcheck():
    from math import comb

    from crossnum.geometry import count_crossings

    for n, pts in CONVEX.items():
        assert general_position(pts), n
        if n >= 4:
            assert count_crossings(PointSet(pts)) == comb(n, 4), n


_selfcheck()
