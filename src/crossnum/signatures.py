"""Triple-orientation signatures of good drawings of complete graphs.

A signature on n vertices assigns + or - to every triple i < j < k.  It is
the combinatorial shadow of a pseudolinear drawing: the sign of a triple says
on which side of the pseudoline through the first two vertices the third one
lies.  Everything downstream of exact coordinates -- counting crossings,
checking realizability, flipping one triple, deleting a vertex -- works on
the signature's sign rows, so those operations cost O(n^2) word operations
on ints of n bits instead of one Python call per triple.

A Signature holds one row per ordered vertex pair: ``_rows[v][x]`` is an
n-bit int whose bit y is set when sign(v, x, y) > 0 (bits v and x are 0).
So the window count of x around v is one ``bit_count()``, ``sign`` is one
bit lookup, a flip toggles six bits and ``delete(v)`` drops bit v from
every row.  The rows are the only representation held.

The io and registry format is the packed one: one bit per lexicographically
ranked triple (1 means +), LSB first inside each byte, the padding bits of
the last byte 0.  ``Signature(n, bits)`` builds the rows from those bytes
(``_rows_from_packed``): up to n = 32 with a few bit operations on one
"sign cube" int that holds every vertex's bit matrix (``_rows_from_cube``),
above with two bit-matrix transposes per vertex; ``to_bytes`` packs them
back; ``Signature.from_signs`` and ``Signature.signs`` do the same for
C(n, 3) '+'/'-' characters in that triple order.  No other module knows the
layout, but for the binary reader's test of the last byte's padding bits
(``io.signature_from_binary``).

``signature_of`` reads a point set's rows off its sweeps
(``geometry.sign_rows``), with no orientation tested per triple.

A Signature answers ``kind``, ``windows()``, ``sweeps()`` and ``delete(v)``
like a ``geometry.PointSet``.  Its windows are the bit counts of its rows,
and its sweeps the rotation around each vertex with its window counts
(``_rotation_windows``), so the point-set counters
``geometry.count_crossings`` and ``geometry.removal_values`` count a
realizable signature too; ``count_crossings_sig`` and ``removal_values_sig``
are those same functions under their signature names.

Realizability is decided by a hull vertex plus the signotope axiom on
4-subsets (``is_realizable``).  The scan needs no transposes: each vertex's
rows, taken in hull order, form a bit matrix whose columns keep their
labels, and one pair of vertices tests all of its 4-subsets in a few
operations per tile of at most 4096 bits (``_signotope_scan``).  Whether one
flip keeps a realizable signature realizable is decided from three rows
(``realizable_after_flip``).  The same packed rows give the crossings
through every vertex, pair and triple from 4-subset sign parity, one step
per pair (``_crossings_through``), which shrink scores its removals by.
``_hull_order`` is the one place that finds an extreme vertex; the SVG
wiring diagram starts its sweep from it too.

A Signature carries a private realizable mark, so that a signature derived
from a realizable one is not checked again (``require_realizable``).  A
``True`` from ``is_realizable`` sets it, and so do ``signature_of``,
``delete`` of a marked signature and the flips ``realizable_after_flip``
allows, which the caller vouches for (``_flip_inplace(t, realizable=True)``).
Every other change of a sign clears it, and a signature built from signs
or bytes starts unmarked, so the registry verifies every payload it reads.
"""

import struct
from functools import cache
from itertools import chain, combinations
from math import comb
from operator import itemgetter

from .geometry import PointSet, count_crossings, removal_values, sign_rows

_TO_BITS = str.maketrans("+-", "10")
_TO_SIGNS = str.maketrans("10", "+-")


class Signature:
    """Triple signs held as per-vertex sign rows, with bit-lookup queries.

    A pseudolinear drawing: ``kind``, ``windows``, ``sweeps`` and ``delete``
    are shared with ``geometry.PointSet``, so the counters take either
    kind.
    """

    __slots__ = ("n", "_rows", "_realizable")
    kind = "pseudo"

    def __init__(self, n, bits=None):
        """The signature of the packed sign bytes ``bits``, every sign -
        when None; the padding bits of the last byte are ignored."""
        if n < 3:
            raise ValueError("signature needs at least 3 vertices")
        nb = (comb(n, 3) + 7) // 8
        if bits is not None and len(bits) != nb:
            raise ValueError(f"expected {nb} sign bytes, got {len(bits)}")
        self.n = n
        self._rows = _rows_from_packed(n, int.from_bytes(bits or b"", "little"))
        self._realizable = False

    @classmethod
    def _of_rows(cls, n, rows, realizable=False):
        D = object.__new__(cls)
        D.n = n
        D._rows = rows
        D._realizable = realizable
        return D

    @classmethod
    def from_signs(cls, n, signs):
        """The signature whose triple of rank r has the sign signs[r], from
        C(n, 3) '+'/'-' characters; ValueError on any other length or character."""
        if n < 3:
            raise ValueError("signature needs at least 3 vertices")
        want = comb(n, 3)
        if len(signs) != want or signs.count("+") + signs.count("-") != want:
            raise ValueError(f"expected C({n},3) = {want} signs, each '+' or '-'")
        return cls._of_rows(n, _rows_from_packed(n, int(signs.translate(_TO_BITS)[::-1], 2)))

    def _packed(self):
        """The signs as one int whose bit r is 1 when the triple of rank r
        is positive: the bits k > j of every row (i, j), i < j, highest rank
        first, gathered one i at a time."""
        n, rows = self.n, self._rows
        packed = 0
        for i in reversed(range(n - 2)):
            row = rows[i]
            block = 0
            for j in reversed(range(i + 1, n - 1)):
                block = block << (n - 1 - j) | row[j] >> (j + 1)
            packed = packed << comb(n - 1 - i, 2) | block
        return packed

    def signs(self):
        """The '+'/'-' string of the signs by triple rank; ``from_signs`` inverts it."""
        return format(self._packed(), f"0{comb(self.n, 3)}b")[::-1].translate(_TO_SIGNS)

    def to_bytes(self):
        """The packed sign bytes, padding bits 0; ``Signature(n, bits)`` inverts it."""
        return self._packed().to_bytes((comb(self.n, 3) + 7) // 8, "little")

    def rank(self, i, j, k):
        """Lexicographic rank of the increasing triple (i, j, k)."""
        arank, psum = _rank_tables(self.n)
        return arank[i] + psum[j] - psum[i + 1] + (k - j - 1)

    def sign(self, a, b, c):
        """Orientation sign of any three distinct vertices in 0..n-1, +1 or -1.

        Swapping two vertices flips the sign, exactly like the determinant
        orientation of three points.
        """
        n = self.n
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n) or a == b or b == c or a == c:
            raise ValueError(f"not three distinct vertices in 0..{n - 1}: {(a, b, c)}")
        return 1 if self._rows[a][b] >> c & 1 else -1

    def set_sign(self, a, b, c, value):
        """Store the sign (+1/-1) for any distinct triple in 0..n-1, parity-adjusted."""
        if (self.sign(a, b, c) > 0) != (value > 0):
            self._flip_inplace((a, b, c))

    def copy(self):
        return Signature._of_rows(self.n, [row[:] for row in self._rows], self._realizable)

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

    def _flip_inplace(self, t, realizable=False):
        """Reverse the sign of the distinct triple t: its bit in the rows
        of all six ordered pairs.  The realizable mark stays only when
        realizable is set, which says that ``realizable_after_flip``
        allowed the flip."""
        a, b, c = t
        rows = self._rows
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            rows[p][q] ^= 1 << r
            rows[q][p] ^= 1 << r
        self._realizable = self._realizable and realizable

    def windows(self):
        """The bit count of every row: the window count of every ordered
        pair (v, x), which its sweeps give too, and a 0 for each row
        (v, v).  n^2 bit counts, no rotation sorted."""
        return map(int.bit_count, chain.from_iterable(self._rows))

    def sweeps(self):
        """Each vertex's rotation and window counts (``_rotation_windows``),
        in index order; lazy, so one is held at a time.  They mean
        something only for a realizable signature."""
        return (_rotation_windows(self, v) for v in range(self.n))

    def delete(self, v):
        """The signature induced on the other vertices, indices shifted down:
        bit v leaves every other row, n^2 int operations.  It is marked
        realizable when this one is."""
        n = self.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        if n - 1 < 3:
            raise ValueError("deletion would leave fewer than 3 vertices")
        low = (1 << v) - 1
        high = -1 << v
        rows = self._rows
        return Signature._of_rows(
            n - 1,
            [
                [r >> 1 & high | r & low for r in row[:v] + row[v + 1 :]]
                for row in rows[:v] + rows[v + 1 :]
            ],
            self._realizable,
        )

    def __eq__(self, other):
        return isinstance(other, Signature) and self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash((self.n, self.to_bytes()))

    def __repr__(self):
        return f"Signature(n={self.n})"


@cache
def _rank_tables(n):
    """rank(i, j, k) = arank[i] + psum[j] - psum[i + 1] + (k - j - 1)."""
    arank = [0] * (n + 1)
    psum = [0] * (n + 1)
    for v in range(n):
        arank[v + 1] = arank[v] + comb(n - 1 - v, 2)
        psum[v + 1] = psum[v] + (n - 1 - v)
    return arank, psum


def _side(n):
    """The side of the square bit matrices that hold n rows of n bits: a
    power of two, and at least 8 so that a row is whole bytes."""
    return max(8, 1 << (n - 1).bit_length())


@cache
def _swap_masks(N):
    """The (shift, mask) of each delta swap that transposes an N x N bit
    matrix held as one int, row r at bits r * N .. r * N + N - 1.  At block
    size s the bits in rows r with r & s == 0 and columns c with c & s != 0
    trade places with those s rows down and s columns left, s * (N - 1)
    bits up."""
    B = N // 8
    out = []
    s = N >> 1
    while s:
        cols = sum(1 << c for c in range(N) if c & s).to_bytes(B, "little")
        mask = b"".join(bytes(B) if r & s else cols for r in range(N))
        out.append((s * (N - 1), int.from_bytes(mask, "little")))
        s >>= 1
    return out


def _delta_swaps(M, swaps):
    """M with each (shift d, mask) delta swap applied in turn: the bits
    under mask trade places with those d bits above them."""
    for d, mask in swaps:
        t = (M ^ M >> d) & mask
        M ^= t ^ t << d
    return M


def _transpose(M, N):
    """The transpose of the N x N bit matrix M, log2 N masked shifts."""
    return _delta_swaps(M, _swap_masks(N))


# rows of one machine word (n <= 64) are packed and unpacked by struct in
# one call, which halves the per-vertex build against the per-row to_bytes
# and from_bytes of the general path; the sign cube unpacks its rows so too
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(rows, B):
    """Rows of at most 8 * B bits as one bit matrix, row x at bit 8 * B * x."""
    if B in _WORDS:
        return int.from_bytes(struct.pack(f"<{len(rows)}{_WORDS[B]}", *rows), "little")
    return int.from_bytes(b"".join(r.to_bytes(B, "little") for r in rows), "little")


def _unpack(M, m, B):
    """The first m rows of the bit matrix M, whose rows are 8 * B bits wide
    and all 0 from row m on."""
    buf = M.to_bytes(m * B, "little")
    if B in _WORDS:
        return list(struct.unpack(f"<{m}{_WORDS[B]}", buf))
    return [int.from_bytes(buf[x * B : x * B + B], "little") for x in range(m)]


# the sign cube of n vertices is n N^2 bits, and its plan holds about twenty
# masks of that size, so the cube stops at 32 vertices (N <= 32); every plan
# up to there together holds under 1 MB
_CUBE_MAX_N = 32


def _rows_from_packed(n, packed):
    """All sign rows of the signature whose triple of rank r is positive
    when bit r of packed is 1, the padding bits of the last byte ignored:
    a few whole-cube bit operations up to n = 32 (``_rows_from_cube``),
    two transposes per vertex above (``_rows_by_vertex``)."""
    if n <= _CUBE_MAX_N:
        return _rows_from_cube(n, packed)
    return _rows_by_vertex(n, packed)


@cache
def _cube_swaps(N):
    """The delta swaps of a sign cube of side N, N slots of N x N bits:
    those of ``_swap_masks(N)`` tiled over the slots, which transpose every
    slot at once, and those that transpose the N x N grid of N-bit words,
    word x of slot v (at bit (v N + x) N) going to word v of slot x."""
    S = N * N // 8  # bytes per slot
    B = N // 8
    slots = [(d, int.from_bytes(mask.to_bytes(S, "little") * N, "little")) for d, mask in _swap_masks(N)]
    words = []
    s = N >> 1
    while s:
        cols = b"".join(b"\xff" * B if x & s else bytes(B) for x in range(N))
        mask = b"".join(bytes(S) if v & s else cols for v in range(N))
        words.append((s * (N - 1) * N, int.from_bytes(mask, "little")))
        s >>= 1
    return slots, words


@cache
def _cube_plan(n):
    """What ``_rows_from_cube`` needs for n vertices, built once from bytes.

    Block i of packed, its bits arank[i] .. arank[i + 1] - 1, ends on a byte
    boundary in the copy of packed shifted up by 8 * top + r, r =
    -arank[i + 1] % 8, which starts r * L bytes into the eight copies
    joined.  Slot i takes the S bytes that start top bytes below that end,
    so each block's top lands at bit 8 * top of its slot, and valid keeps
    only the block's own bits.  There field j, the n - 1 - j signs of the
    triples (i, j, .), sits at bit 8 * top - C(n - j, 2) of every slot, and
    row j wants it at bit j N + j + 1: a shift that grows with j, so the
    expand stages, one per bit of the shifts from the highest down, move
    fields that never collide.  H holds the bits above v, up to n - 1, in
    word v of every slot x < v; below holds in slot v the bits below x of
    every word x < n, x != v, bit v cleared.
    """
    N = _side(n)
    S = N * N // 8
    word = _WORDS[N // 8]
    arank = _rank_tables(n)[0]
    top = (comb(n - 1, 2) + 7) // 8  # whole bytes under the longest block
    L = top + (comb(n, 3) + 7) // 8 + S  # bytes per shifted copy
    starts = [-e % 8 * L + (e + 7) // 8 for e in arank[1:]]  # r * L + ceil(e / 8), e = arank[i + 1]
    pick = itemgetter(*(slice(a, a + S) for a in starts))
    valid = b"".join(
        (((1 << (b - a)) - 1) << (8 * top - b + a)).to_bytes(S, "little") for a, b in zip(arank, arank[1:])
    )
    fields = [(8 * top - comb(n - j, 2), n - 1 - j) for j in range(1, n - 1)]
    shifts = [j * (N + 1) + 1 - at for j, (at, _) in enumerate(fields, 1)]
    stages = []
    for k in reversed(range(max(shifts).bit_length())):
        mask = 0
        for (at, w), e in zip(fields, shifts):
            if e >> k & 1:
                mask |= ((1 << w) - 1) << (at + (e >> (k + 1) << (k + 1)))
        if mask:
            stages.append((1 << k, int.from_bytes(mask.to_bytes(S, "little") * n, "little")))

    def cube(slots):  # n slots of N words each
        return int.from_bytes(struct.pack(f"<{n * N}{word}", *chain.from_iterable(slots)), "little")

    full = (1 << n) - 1
    pad = [0] * (N - n)
    high = [full ^ ((2 << v) - 1) for v in range(n)] + pad
    H = cube([0] * (x + 1) + high[x + 1 :] for x in range(n))
    below = cube([((1 << x) - 1) & ~(1 << v) if x != v else 0 for x in range(n)] + pad for v in range(n))
    return (
        range(8 * top, 8 * top + 8),
        L,
        pick,
        int.from_bytes(valid, "little"),
        stages,
        *_cube_swaps(N),
        H,
        below,
        struct.Struct(f"<{n}{word}{(N - n) * N // 8}x"),
    )


def _rows_from_cube(n, packed):
    """``_rows_from_packed`` for n <= 32, on one sign cube: an int of N
    slots of N x N bits, N = _side(n), slot v at bit v N^2 holding vertex
    v's bit matrix, row x at bit x N of the slot.

    The packed blocks are dropped into their slots by one join of byte
    slices and expanded, every slot at once (``_cube_plan``), to U: word v
    of slot x is upper[x][v] of ``_rows_by_vertex``.  One batch transpose
    of the slots gives cols[x][v] in the same place, and one transpose of
    the word grid moves cols[x][v] | (upper[x][v] ^ H) to word x of slot v,
    so that V, that grid or U, holds in slot v the rows above the diagonal
    (``up`` there) of vertex v.  R = V | (V's batch transpose ^ below)
    then completes the rows below the diagonal, as there.  About 130
    operations on ints of at most N^3 bits in all at n = 28, and one
    unpack.
    """
    offsets, L, pick, valid, stages, slots, words, H, below, unpack = _cube_plan(n)
    copies = b"".join([(packed << s).to_bytes(L, "little") for s in offsets])
    U = int.from_bytes(b"".join(pick(copies)), "little") & valid
    for d, mask in stages:
        t = U & mask
        U ^= t ^ t << d
    V = U | _delta_swaps(_delta_swaps(U, slots) ^ U ^ H, words)
    R = V | (_delta_swaps(V, slots) ^ below)
    return list(map(list, unpack.iter_unpack(R.to_bytes(n * unpack.size, "little"))))


def _rows_by_vertex(n, packed):
    """``_rows_from_packed`` with two transposes per vertex: the only build
    above 32 vertices, and the tests' oracle of the cube.

    upper[i][j], i < j, is the row (i, j) restricted to its bits k > j,
    which are the consecutive ranks of the triples (i, j, .).  Write s for
    sign(v, x, y) > 0.  Above the diagonal, x < y, row x of vertex v reads
    s off
      upper[v][x] at bit y when v < x,
      the complement of upper[x][v] at bit y when x < v < y, and
      upper[x][y] at bit v when y < v: bit y of cols[x][v], where cols[x]
      is the transpose of upper[x].
    Below it s is the complement of the transposed sign, outside row and
    column v, since swapping x and y reverses the sign.
    """
    arank = _rank_tables(n)[0]
    upper = []
    for i in range(n):
        block = packed >> arank[i] & ((1 << (arank[i + 1] - arank[i])) - 1)
        row = [0] * n
        for j in range(i + 1, n - 1):
            w = n - 1 - j
            row[j] = (block & ((1 << w) - 1)) << (j + 1)
            block >>= w
        upper.append(row)
    N = _side(n)
    B = N // 8
    full = (1 << n) - 1
    cols = [_unpack(_transpose(_pack(ux, B), N), n, B) for ux in upper]
    lower = int.from_bytes(b"".join(((1 << x) - 1).to_bytes(B, "little") for x in range(n)), "little")
    firsts = int.from_bytes(b"\x01".ljust(B, b"\x00") * n, "little")  # bit 0 of each row
    rows = []
    for v in range(n):
        high = full ^ ((2 << v) - 1)
        up = [cols[x][v] | (upper[x][v] ^ high) for x in range(v)]
        up.append(0)
        up += upper[v][v + 1 :]
        M = _pack(up, B)
        below = lower ^ (((1 << v) - 1) << (v * N)) ^ (firsts >> ((v + 1) * N) << ((v + 1) * N + v))
        rows.append(_unpack(M | (_transpose(M, N) ^ below), n, B))
    return rows


# each byte with every bit doubled, bit k to bits 2k and 2k + 1
_DOUBLED = [sum(3 << 2 * k for k in range(8) if b >> k & 1).to_bytes(2, "little") for b in range(256)]


def _doubled(D, t):
    """The doubled signature of D, unverified and unmarked: copies 2v and
    2v + 1 of vertex v pulled apart along the pseudoline through v and t(v)
    (``doubling.double_signature``).

    Triples of three distinct originals inherit their sign, so the row of
    copies of distinct originals i and j is row (i, j) of D with every bit
    doubled (one byte table over all rows at once), plus the bits of the
    other copies of i and j.  Those read off S_v, the row (2v, 2v + 1):
    row (v, t(v)) doubled, the side of the pseudoline each copy of another
    vertex lies on, but for the copies of t(v), which lie on it; of those,
    copy 2t(v) + 1 is on the side of t(t(v)), where t(v)'s own copies
    move.  Then sign(p, q, p ^ 1) is bit q of S_i for p odd and its
    complement for p even, and sign(p, q, q ^ 1) is bit p of S_j for q even
    and its complement for q odd.  O(n^2) row operations.
    """
    n, rows = D.n, D._rows
    N = 2 * n
    B = _side(n) // 8
    flat = _pack(list(chain.from_iterable(rows)), B).to_bytes(n * n * B, "little")
    doubled = _unpack(int.from_bytes(b"".join(map(_DOUBLED.__getitem__, flat)), "little"), n * n, 2 * B)
    full = (1 << N) - 1
    S = []
    for v in range(n):
        tv = t[v]
        side = rows[v][tv] >> t[tv] & 1
        S.append(doubled[v * n + tv] | 1 << (2 * tv + side))
    out = []
    for p in range(N):
        i = p >> 1
        odd = p & 1
        A = S[i] if odd else full ^ S[i]
        other = 1 << (p ^ 1)
        row = [0] * N
        row[p ^ 1] = (full ^ S[i] ^ 3 << (p - 1)) if odd else S[i]
        for j, e in enumerate(doubled[i * n : i * n + n]):
            if j != i:
                q = 2 * j
                c = S[j] >> p & 1
                row[q] = e | other * (A >> q & 1) | c << q + 1
                row[q + 1] = e | other * (A >> q + 1 & 1) | (c ^ 1) << q
        out.append(row)
    return Signature._of_rows(N, out)


def convex_signature(n):
    """The signature of n points in convex position, all triples positive."""
    return Signature.from_signs(n, "+" * comb(n, 3))


def signature_of(S):
    """The triple signature of a point set in general position, marked
    realizable: its sign rows read off the set's sweeps
    (``geometry.sign_rows``), O(n^2 log n) with no orientation tested per
    triple.  A repeated point or three collinear points raise
    DegenerateError, as the sweeps do."""
    S = S if isinstance(S, PointSet) else PointSet(S)
    n = S.n
    if n < 3:
        raise ValueError("signature needs at least 3 points")
    return Signature._of_rows(n, sign_rows(n, S.sweeps()), realizable=True)


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
    half-turn before it.  Inside a half-turn x comes before y when
    sign(v, x, y) > 0, so each half is sorted by the number of its vertices
    that x comes before, one masked ``bit_count()`` of v's row x; ties, which
    only a signature that is not realizable has, keep index order.
    """
    n = D.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    row = D._rows[v]
    ref = 1 if v == 0 else 0
    fore = row[ref]
    aft = ((1 << n) - 1) ^ fore ^ (1 << v) ^ (1 << ref)
    rot = [ref]
    for half in (fore, aft):
        rot += sorted(_members(half), key=lambda x: (row[x] & half).bit_count(), reverse=True)
    return rot


def _members(mask):
    """The positions of the set bits of mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _rotation_windows(D, v):
    """Rotation around v and, per position, the size of its forward window.

    avals[t] counts the vertices x with sign(v, rot[t], x) > 0, one
    ``bit_count()`` of v's row rot[t]; in the signature of a pseudolinear
    drawing they are the vertices strictly inside the half-turn that
    starts just after direction rot[t].
    """
    rot = rotation(D, v)
    row = D._rows[v]
    return rot, [row[x].bit_count() for x in rot]


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
    rebuilt from w to its clockwise-most neighbour: O(n) bit lookups per
    rebuild, O(n^2) at most.  In a realizable signature h lies on the hull,
    so its rotation is a transitive tournament (a beats b when
    sign(h, a, b) > 0) whose out-degrees, the bit counts of h's rows, are
    exactly 0..n-2, and falling out-degree is the order.
    """
    n = D.n
    rows = D._rows
    a, b = 0, 1
    for w in range(2, n):
        if not rows[a][b] >> w & 1:
            a, b = w, 0
            for x in range(1, w):
                if not rows[a][b] >> x & 1:
                    b = x
    h = a
    rest = [p for p in range(n) if p != h]
    wins = [rows[h][p].bit_count() for p in rest]
    if sorted(wins) != list(range(n - 1)):
        return None
    order = [h] * n
    for p, w in zip(rest, wins):
        order[n - 1 - w] = p
    return order


# the widest bit matrix the scan works on: at n = 96 and 192 tiles of 2048
# and 4096 bits run alike, 8192-bit tiles and whole matrices are slower
_TILE_BITS = 4096


def _signotope_scan(D, order):
    """Whether the signs of the vertices order[0..m-1], relabelled 0..m-1
    in that order, form a signotope: no 4-subset a < b < c < d changes sign
    twice along abc, abd, acd, bcd.

    R[a] holds vertex order[a]'s rows in that order, in tiles of T rows of
    N bits and at most _TILE_BITS bits each: its row c is the row
    (order[a], order[c]), whose columns keep their labels.  One pair a < b
    tests every (c, d) at once, tile by tile: acd is R[a] and bcd is R[b];
    abd is the row (order[a], order[b]) copied onto every row; abc is the
    complement of column order[b] of R[a] spread across each row, as
    sign(a, b, c) = -sign(a, c, b).  Row c of masks holds the labels whose
    position in order is above c, and the pair's first tile drops its rows
    up to b.  No transposes; one step per pair and tile.
    """
    m = len(order)
    N = _side(D.n)
    B = N // 8
    T = min(m, _TILE_BITS // N)
    starts = range(0, m, T)
    rows = D._rows
    pick = itemgetter(*order)
    R = []
    for a in range(m - 2):
        picked = pick(rows[order[a]])
        R.append([_pack(picked[s : s + T], B) for s in starts])
    cols = [0] * m
    above = 0
    for c in reversed(range(m)):
        cols[c] = above
        above |= 1 << order[c]
    masks = [_pack(cols[s : s + T], B) for s in starts]
    # first[b]: the mask of the tile holding row b + 1, from that row on
    first = [masks[(b + 1) // T] >> ((b + 1) % T * N) << ((b + 1) % T * N) for b in range(m - 2)]
    firsts = int.from_bytes(b"\x01".ljust(B, b"\x00") * T, "little")  # bit 0 of each row
    tiles = len(starts)
    for a in range(m - 3):
        Ra = R[a]
        ra = rows[order[a]]
        for b in range(a + 1, m - 2):
            Rb = R[b]
            ob = order[b]
            abd = ra[ob] * firsts
            t = (b + 1) // T
            mask = first[b]
            while True:
                acd = Ra[t]
                s = acd >> ob & firsts
                change1 = (s << N) - s ^ abd ^ mask  # abc ^ abd inside mask
                change2 = abd ^ acd
                change3 = acd ^ Rb[t]
                if (change1 & change2 | change3 & (change1 | change2)) & mask:
                    return False
                t += 1
                if t == tiles:
                    break
                mask = masks[t]
    return True


def _lane_counts(M, m, B):
    """The bit counts of the first m rows of the bit matrix M, whose rows
    are 8 * B bits wide and all 0 from row m on: one count per machine word
    (``_WORDS``), and the words of each row summed above 64 bits."""
    w = min(B, 8)
    words = struct.unpack(f"<{m * B // w}{_WORDS[w]}", M.to_bytes(m * B, "little"))
    counts = map(int.bit_count, words)
    return list(counts) if w == B else list(map(sum, zip(*[counts] * (B // w))))


def _crossings_through(D, triples=False):
    """The crossing count of a realizable signature and the crossings
    through each of its vertices and pairs, and through each triple when
    triples is set, from the parity of 4-subset signs.

    A 4-subset is in convex position exactly when the product of its four
    triple signs is +1; relabelling two of its vertices reverses two of the
    four, so this holds under any labelling.  In bits (1 for +), {a, b, c, d}
    crosses exactly when abc ^ abd ^ acd ^ bcd is 0.  R[a] packs vertex a's
    rows, row (a, c) in lane c (``_pack``), as the signotope scan does.  For
    a pair a < b, R[a] ^ R[b] ^ the row (a, b) copied into every lane ^
    column b of R[a] spread across each lane holds acd ^ bcd ^ abd ^ acb at
    bit d of lane c, and acb = 1 - abc, so the bit is set exactly when
    {a, b, c, d} crosses.  Its lane b and column b are 0 by construction,
    so masked to lanes and bits c != d other than a, its bit count is twice
    the crossings through a and b, and lane c's bit count the crossings
    through a, b and c: one step of ten int operations per pair.  A crossing through a has three more endpoints, so
    inv[a] is a third of a's pair counts summed, and every crossing has
    four, so cr = sum(inv) / 4.

    Returns (cr, inv, inv2, inv3): inv2[a][b] counts the crossings through a
    and b (0 when a == b), and inv3, when triples is set, lists for every
    pair a < b in lexicographic order the crossings through a, b and c for
    c = b + 1 .. n - 1 (None otherwise).
    """
    n, rows = D.n, D._rows
    N = _side(n)
    B = N // 8
    lane = (1 << N) - 1
    firsts = int.from_bytes(b"\x01".ljust(B, b"\x00") * n, "little")  # bit 0 of each lane
    off = _pack([((1 << n) - 1) ^ 1 << c for c in range(n)], B)  # c != d, both below n
    keep = [off & ~(lane << a * N | firsts << a) for a in range(n)]  # and neither is a
    R = [_pack(row, B) for row in rows]
    inv2 = [[0] * n for _ in range(n)]
    inv3 = [] if triples else None
    for a in range(n - 1):
        Ra, ra, Ka, Pa = R[a], rows[a], keep[a], inv2[a]
        for b in range(a + 1, n):
            Y = (Ra ^ R[b] ^ ra[b] * firsts ^ (Ra >> b & firsts) * lane) & Ka
            Pa[b] = inv2[b][a] = Y.bit_count() >> 1
            if triples:
                inv3.append(_lane_counts(Y >> (b + 1) * N, n - 1 - b, B))
    inv = [sum(row) // 3 for row in inv2]
    return sum(inv) // 4, inv, inv2, inv3


def is_realizable(D):
    """Whether D is the signature of an arrangement of pseudolines, in O(n^4)
    bit operations.

    _hull_order gives a vertex h and an order p_0..p_{n-2} of the others
    with every sign(h, p_i, p_j), i < j, positive, or None, and then D is
    not realizable.  Otherwise D is realizable exactly when the relabelled
    signs of p_0..p_{n-2} form a signotope: along abc, abd, acd, bcd every
    4-subset changes sign at most once (Knuth, Axioms and Hulls, LNCS 606,
    1992; Felsner & Weil, Sweeps, arrangements and signotopes, Discrete
    Appl. Math. 109, 2001).  The order costs O(n) bit counts, and the scan
    (``_signotope_scan``) one step per pair a < b of the others and row
    tile from row b + 1 on, each a dozen operations on ints of at most 4096
    bits: C(n-3, 2) steps up to n = 64, where one tile holds every row.
    Every signature on 3 vertices is realizable.  The answer becomes D's
    realizable mark.
    """
    ok = D.n < 4
    if not ok:
        order = _hull_order(D)
        ok = order is not None and _signotope_scan(D, order[1:])
    D._realizable = ok
    return ok


def require_realizable(D):
    """Raise ValueError unless the signature D is realizable: at once when
    D is marked realizable, else by ``is_realizable``."""
    if not (D._realizable or is_realizable(D)):
        raise ValueError("signature is not realizable")


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
    middle vertex.  The three signs of every d are bit d of the rows (i, j),
    (i, k) and (j, k), so the test is a few operations on n-bit ints; True
    on 3 vertices.  Raises ValueError unless t names three distinct
    vertices of D.
    """
    return _keeps_realizable(D, *D._triple(t))


def _keeps_realizable(D, i, j, k):
    """``realizable_after_flip`` for a triple i < j < k of distinct
    vertices of D, unchecked: the triangular-cell test alone, which flip
    search runs on every step."""
    ri = D._rows[i]
    rij = ri[j]
    others = ((1 << D.n) - 1) ^ (1 << i) ^ (1 << j) ^ (1 << k)
    x = (rij ^ ri[k]) & others  # s1 != s2
    y = (rij ^ D._rows[j][k]) & others  # s1 != s3
    if x & ~y:
        return False
    # x, y ^ x and others ^ y: the vertices that see i, k and j in the middle
    return (x != 0) + (y != x) + (others != y) <= 1


def delete_vertex(D, v):
    """The signature induced on the vertices other than v, indices shifted down."""
    return D.delete(v)
