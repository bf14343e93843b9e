"""Triple-orientation signatures of good drawings of complete graphs.

A signature on n vertices assigns + or - to every triple i < j < k.  It is
the combinatorial shadow of a pseudolinear drawing: the sign of a triple says
on which side of the pseudoline through the first two vertices the third one
lies.  Everything downstream of exact coordinates -- counting crossings,
checking realizability, flipping one triple, deleting a vertex -- works on
the packed signs directly, so signatures of a few thousand vertices stay
cheap to copy and mutate.

Signs are stored one bit per lexicographically ranked triple (1 means +),
LSB first inside each byte; the padding bits of the last byte are always 0.
Only ``Signature.from_signs`` and ``Signature.signs`` pack and unpack them,
to and from C(n, 3) '+'/'-' characters in that triple order.

A Signature answers ``kind``, ``sweeps()`` and ``delete(v)`` like a
``geometry.PointSet``.  Its sweeps are the rotation around each vertex with
its window counts (``_rotation_windows``), so the point-set counters
``geometry.count_crossings`` and ``geometry.removal_values`` count a
realizable signature too; ``count_crossings_sig`` and ``removal_values_sig``
are those same functions under their signature names.

Realizability is decided by a hull vertex plus the signotope axiom on
4-subsets (``is_realizable``); whether one flip keeps a realizable signature
realizable is decided from three signs per other vertex
(``realizable_after_flip``).  ``_hull_order`` is the one place that finds an
extreme vertex; the SVG wiring diagram starts its sweep from it too.
"""

from functools import cmp_to_key
from itertools import combinations
from math import comb

from .geometry import DegenerateError, count_crossings, orient, removal_values, _points


class Signature:
    """Packed triple signs with O(1) rank lookup and parity-aware queries.

    A pseudolinear drawing: ``kind``, ``sweeps`` and ``delete`` are shared
    with ``geometry.PointSet``, so the counters take either kind.
    """

    __slots__ = ("n", "_bits", "_arank", "_psum")
    kind = "pseudo"

    def __init__(self, n, bits=None):
        if n < 3:
            raise ValueError("signature needs at least 3 vertices")
        self.n = n
        nb = (comb(n, 3) + 7) // 8
        if bits is None:
            self._bits = bytearray(nb)
        else:
            if len(bits) != nb:
                raise ValueError(f"expected {nb} sign bytes, got {len(bits)}")
            self._bits = bytearray(bits)
            self._bits[-1] &= 0xFF >> (-comb(n, 3) % 8)  # clear the padding bits
        # rank(i,j,k) = arank[i] + psum[j] - psum[i+1] + (k - j - 1)
        arank = [0] * (n + 1)
        psum = [0] * (n + 1)
        for v in range(n):
            arank[v + 1] = arank[v] + comb(n - 1 - v, 2)
            psum[v + 1] = psum[v] + (n - 1 - v)
        self._arank = arank
        self._psum = psum

    @classmethod
    def from_signs(cls, n, signs):
        """The signature whose triple of rank r has the sign signs[r], from
        C(n, 3) '+'/'-' characters; ValueError on any other length or character."""
        if n < 3:
            raise ValueError("signature needs at least 3 vertices")
        want = comb(n, 3)
        if len(signs) != want or signs.count("+") + signs.count("-") != want:
            raise ValueError(f"expected C({n},3) = {want} signs, each '+' or '-'")
        bits = int(signs.translate(str.maketrans("+-", "10"))[::-1], 2)
        return cls(n, bits.to_bytes((want + 7) // 8, "little"))

    def signs(self):
        """The '+'/'-' string of the signs by triple rank; ``from_signs`` inverts it."""
        bits = int.from_bytes(self._bits, "little")
        return format(bits, f"0{comb(self.n, 3)}b")[::-1].translate(str.maketrans("10", "+-"))

    def rank(self, i, j, k):
        """Lexicographic rank of the increasing triple (i, j, k)."""
        return self._arank[i] + self._psum[j] - self._psum[i + 1] + (k - j - 1)

    def sign(self, a, b, c):
        """Orientation sign of any three distinct vertices in 0..n-1, +1 or -1.

        Swapping two vertices flips the sign, exactly like the determinant
        orientation of three points.
        """
        s = 1
        if a > b:
            a, b, s = b, a, -s
        if b > c:
            b, c, s = c, b, -s
            if a > b:
                a, b, s = b, a, -s
        if not 0 <= a < b < c < self.n:
            raise ValueError(f"not three distinct vertices in 0..{self.n - 1}: {(a, b, c)}")
        r = self.rank(a, b, c)
        return s if self._bits[r >> 3] >> (r & 7) & 1 else -s

    def set_sign(self, a, b, c, value):
        """Store the sign (+1/-1) for any distinct triple in 0..n-1, parity-adjusted."""
        if (self.sign(a, b, c) > 0) != (value > 0):
            self._flip_inplace((a, b, c))

    def copy(self):
        return Signature(self.n, bytes(self._bits))

    def to_bytes(self):
        return bytes(self._bits)

    def _triple(self, t):
        """t sorted increasingly; ValueError unless it names three distinct
        vertices of this signature."""
        i, j, k = sorted(t)
        if not 0 <= i < j < k < self.n:
            raise ValueError(f"not three distinct vertices in 0..{self.n - 1}: {tuple(t)}")
        return i, j, k

    def flip(self, t):
        """A new signature with the sign of triple t reversed."""
        out = self.copy()
        out._flip_inplace(self._triple(t))
        return out

    def _flip_inplace(self, t):
        r = self.rank(*sorted(t))
        self._bits[r >> 3] ^= 1 << (r & 7)

    def sweeps(self):
        """Each vertex's rotation and window counts (``_rotation_windows``),
        in index order; lazy, so one is held at a time.  They mean
        something only for a realizable signature."""
        return (_rotation_windows(self, v) for v in range(self.n))

    def delete(self, v):
        """The signature induced on the other vertices, indices shifted down."""
        n = self.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        if n - 1 < 3:
            raise ValueError("deletion would leave fewer than 3 vertices")
        return _relabel(self, [x for x in range(n) if x != v])

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self):
        return hash((self.n, bytes(self._bits)))

    def __repr__(self):
        return f"Signature(n={self.n})"


def convex_signature(n):
    """The signature of n points in convex position, all triples positive."""
    return Signature.from_signs(n, "+" * comb(n, 3))


def signature_of(S):
    """Extract the triple signature of a point set in general position."""
    pts = _points(S)
    n = len(pts)
    if n < 3:
        raise ValueError("signature needs at least 3 points")
    rows = []  # the signs of the triples i < j < k, one string per i
    for i in range(n):
        pi = pts[i]
        row = []
        for j in range(i + 1, n):
            pj = pts[j]
            for k in range(j + 1, n):
                o = orient(pi, pj, pts[k])
                if o == 0:
                    raise DegenerateError(f"collinear triple ({i}, {j}, {k})")
                row.append("+" if o > 0 else "-")
        rows.append("".join(row))
    return Signature.from_signs(n, "".join(rows))


def _pair_crossing(sign, a, b, c, d):
    """Whether some perfect pairing of {a,b,c,d} yields a crossing.

    Two chords pq and rs of a 4-subset cross exactly when p, q lie on
    opposite sides of rs and r, s lie on opposite sides of pq.
    """
    for (p, q), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        if sign(p, q, r) != sign(p, q, s) and sign(r, s, p) != sign(r, s, q):
            return True
    return False


def count_crossings_sig_brute(D):
    """Crossing count by checking all C(n,4) subsets against the pairing rule."""
    sign = D.sign
    total = 0
    for a, b, c, d in combinations(range(D.n), 4):
        if _pair_crossing(sign, a, b, c, d):
            total += 1
    return total


def rotation(D, v):
    """Counterclockwise order of the other vertices as seen from v.

    The reference vertex is the lowest index other than v; the remaining
    vertices split into the half-turn after the reference direction and the
    half-turn before it, each sorted by the signature's own orientation.
    """
    n = D.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    ref = 1 if v == 0 else 0
    fore = []
    aft = []
    for x in range(n):
        if x == v or x == ref:
            continue
        (fore if D.sign(v, ref, x) > 0 else aft).append(x)

    def before(x, y):
        return -1 if D.sign(v, x, y) > 0 else 1

    fore.sort(key=cmp_to_key(before))
    aft.sort(key=cmp_to_key(before))
    return [ref] + fore + aft


def _rotation_windows(D, v):
    """Rotation around v and, per position, the size of its forward window.

    avals[t] counts the vertices strictly inside the half-turn that starts
    just after direction rot[t].  Valid for signatures of pseudolinear
    drawings, where each window is a contiguous arc of the rotation.
    """
    rot = rotation(D, v)
    m = len(rot)
    sign = D.sign
    avals = []
    j = 1
    for t in range(m):
        if j < t + 1:
            j = t + 1
        while j - t < m and sign(v, rot[t], rot[j % m]) > 0:
            j += 1
        avals.append(j - t - 1)
    return rot, avals


# The point-set counters read any drawing's sweeps; a signature must be
# realizable (``is_realizable``), and no check is made.
count_crossings_sig = count_crossings
removal_values_sig = removal_values


def _hull_order(D):
    """A hull vertex h, then the other vertices p_0, p_1, ... ordered so that
    every sign(h, p_i, p_j) with i < j is positive; None when no such order
    exists, which means D is not realizable.

    h is found by keeping an edge (a, b) with vertices 0..w-1 all to its
    left.  A vertex w to its right lies outside their hull, so the edge is
    rebuilt from w to its clockwise-most neighbour: O(n) sign queries per
    rebuild, O(n^2) at most.  In a realizable signature h lies on the hull,
    so its rotation is a transitive tournament (a beats b when
    sign(h, a, b) > 0) with out-degrees exactly 0..n-2, and falling
    out-degree is the order.
    """
    n = D.n
    sign = D.sign
    a, b = 0, 1
    for w in range(2, n):
        if sign(a, b, w) < 0:
            a, b = w, 0
            for x in range(1, w):
                if sign(a, b, x) < 0:
                    b = x
    h = a
    rest = [v for v in range(n) if v != h]
    wins = {p: sum(1 for q in rest if q != p and sign(h, p, q) > 0) for p in rest}
    if sorted(wins.values()) != list(range(n - 1)):
        return None
    return [h] + sorted(rest, key=wins.__getitem__, reverse=True)


def _relabel(D, order):
    """The signature on len(order) vertices whose triple (i, j, k) carries
    D.sign(order[i], order[j], order[k])."""
    m = len(order)
    signs = D.signs()
    swapped = signs.translate(str.maketrans("+-", "-+"))
    rank = D.rank
    rows = []
    for i in range(m):
        a = order[i]
        row = []
        for j in range(i + 1, m):
            b = order[j]
            # sorting (a, b, c) is odd when exactly one of a > b and lo < c < hi
            # holds, and then the sign is read from the swapped string
            lo, hi, outside, between = (a, b, signs, swapped) if a < b else (b, a, swapped, signs)
            for k in range(j + 1, m):
                c = order[k]
                if c > hi:
                    row.append(outside[rank(lo, hi, c)])
                elif c > lo:
                    row.append(between[rank(lo, c, hi)])
                else:
                    row.append(outside[rank(c, lo, hi)])
        rows.append("".join(row))
    return Signature.from_signs(m, "".join(rows))


def _is_signotope(E):
    """Whether every 4-subset a < b < c < d of E changes sign at most once
    along abc, abd, acd, bcd.

    Works on rows of the packed bits: row[i][j] holds sign(i, j, k) for all
    k > j, bit k - j - 1, so one (a, b, c) tests every d > c at once.
    """
    m = E.n
    bits = E._bits
    row = [[0] * m for _ in range(m)]
    r = 0
    for i in range(m):
        for j in range(i + 1, m):
            width = m - 1 - j
            chunk = int.from_bytes(bits[r >> 3 : (r + width + 7) >> 3], "little")
            row[i][j] = (chunk >> (r & 7)) & ((1 << width) - 1)
            r += width
    for a in range(m - 3):
        ra = row[a]
        for b in range(a + 1, m - 2):
            rab = ra[b]
            rb = row[b]
            for c in range(b + 1, m - 1):
                x = rab >> (c - b - 1)  # bit 0: abc, bit d - c: abd
                abd = x >> 1
                change1 = abd ^ ((1 << (m - 1 - c)) - 1) if x & 1 else abd
                change2 = abd ^ ra[c]
                change3 = ra[c] ^ rb[c]
                if change1 & change2 | change3 & (change1 | change2):
                    return False
    return True


def is_realizable(D):
    """Whether D is the signature of an arrangement of pseudolines, in O(n^4).

    _hull_order gives a vertex h and an order p_0..p_{n-2} of the others
    with every sign(h, p_i, p_j), i < j, positive, or None, and then D is
    not realizable.  Otherwise D is realizable exactly when the relabelled
    signs of p_0..p_{n-2} form a signotope: along abc, abd, acd, bcd every
    4-subset changes sign at most once (Knuth, Axioms and Hulls, LNCS 606,
    1992; Felsner & Weil, Sweeps, arrangements and signotopes, Discrete
    Appl. Math. 109, 2001).  The order costs O(n^2) sign queries, the
    relabelling O(n^3), and the scan C(n-1, 3) steps over (n-1)-bit rows.
    Every signature on 3 vertices is realizable.
    """
    if D.n < 4:
        return True
    order = _hull_order(D)
    return order is not None and _is_signotope(_relabel(D, order[1:]))


def flip(D, t):
    """A new signature equal to D with the sign of triple t reversed."""
    return D.flip(t)


def realizable_after_flip(D, t):
    """Whether flipping triple t keeps a realizable signature realizable.

    Assumes D is realizable (the invariant flip search maintains); the result
    then equals is_realizable(flip(D, t)).  A flip of ijk keeps an
    arrangement of pseudolines valid exactly when the pseudolines i, j, k
    bound a triangular cell (Roudneff & Sturmfels, Simplicial cells in
    arrangements and mutations of oriented matroids, Geom. Dedicata 27,
    1988).  Each other vertex d checks its part from three signs:
    s1 = sign(d, i, j), s2 = sign(d, i, k), s3 = sign(d, j, k).
    s1 == s3 != s2 means d lies inside triangle ijk, and flipping that outer
    triangle would leave the cyclic 4-subset {i, j, k, d}.  Otherwise i, j, k
    lie in a half-turn around d, and the middle one is i when s1 != s2, else
    j when s1 == s3, else k; the flip is valid when every d sees the same
    middle vertex.  3(n-3) sign queries; True on 3 vertices.  Raises
    ValueError unless t names three distinct vertices of D.
    """
    i, j, k = D._triple(t)
    sign = D.sign
    mid = None
    for d in range(D.n):
        if d == i or d == j or d == k:
            continue
        s1, s2, s3 = sign(d, i, j), sign(d, i, k), sign(d, j, k)
        if s1 == s3 != s2:
            return False
        m = i if s1 != s2 else j if s1 == s3 else k
        if mid is not None and m != mid:
            return False
        mid = m
    return True


def delete_vertex(D, v):
    """The signature induced on the vertices other than v, indices shifted down."""
    return D.delete(v)
