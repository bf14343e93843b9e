"""Sign rows against the packed layout they replaced.

A Signature holds per-vertex sign rows.  PackedSignature keeps the layout
signatures used to hold: one bit per lexicographically ranked triple, read
through one rank per query, with the comparator-sorted rotation, the
contiguous-run window loop and the per-triple relabel, all kept here as
oracles.  Every row operation must agree with them on the signatures of the
doubling chain and of k2643 subsets up to n = 96, on flip-search outputs and
on arbitrary signs.  The guard tests check that the row paths never fall
back to per-triple sign queries.

The realizability scan that relabels the rows by bit-matrix transposes and
then steps over one triple (a, b, c) at a time is kept here too, as the
oracle of the tiled scan that replaced it.
"""

import random
from functools import cache, cmp_to_key
from importlib import resources
from itertools import chain, combinations, permutations
from math import comb
from operator import itemgetter, rshift

import pytest

from crossnum.doubling import double_points, double_signature
from crossnum import signatures
from crossnum.geometry import PointSet, count_crossings, crossings_from_windows, removal_values
from crossnum.halving import halving_matching, halving_matching_sig, slot_partner
from crossnum.heuristics import SearchBudget, sig_flip_search
from crossnum.io import load_points
from crossnum.signatures import (
    Signature,
    convex_signature,
    count_crossings_sig,
    is_realizable,
    realizable_after_flip,
    removal_values_sig,
    rotation,
    signature_of,
    _hull_order,
    _pack,
    _rows_by_vertex,
    _side,
    _signotope_scan,
    _transpose,
    _unpack,
)

from conftest import rand_general


class PackedSignature:
    """Triple signs packed one bit per lexicographically ranked triple, LSB
    first inside each byte; a query sorts its triple and reads one bit."""

    kind = "pseudo"

    def __init__(self, n, bits):
        self.n = n
        self.bits = bytearray(bits)
        self.bits[-1] &= 0xFF >> (-comb(n, 3) % 8)

    def rank(self, i, j, k):
        n = self.n
        return comb(n, 3) - comb(n - i, 3) + comb(n - 1 - i, 2) - comb(n - j, 2) + (k - j - 1)

    def sign(self, a, b, c):
        s = 1
        if a > b:
            a, b, s = b, a, -s
        if b > c:
            b, c, s = c, b, -s
            if a > b:
                a, b, s = b, a, -s
        assert 0 <= a < b < c < self.n
        r = self.rank(a, b, c)
        return s if self.bits[r >> 3] >> (r & 7) & 1 else -s

    def flip_inplace(self, t):
        r = self.rank(*sorted(t))
        self.bits[r >> 3] ^= 1 << (r & 7)

    def to_bytes(self):
        return bytes(self.bits)

    def signs(self):
        bits = int.from_bytes(self.bits, "little")
        return format(bits, f"0{comb(self.n, 3)}b")[::-1].translate(str.maketrans("10", "+-"))

    def sweeps(self):
        return (rotation_windows_oracle(self, v) for v in range(self.n))

    def windows(self):
        return chain.from_iterable(avals for _, avals in self.sweeps())

    def delete(self, v):
        return relabel_oracle(self, [x for x in range(self.n) if x != v])


def packed(D):
    return PackedSignature(D.n, D.to_bytes())


def rotation_oracle(D, v):
    """The reference vertex, then each half-turn sorted by the comparator
    sign(v, x, y) > 0."""
    ref = 1 if v == 0 else 0
    fore, aft = [], []
    for x in range(D.n):
        if x != v and x != ref:
            (fore if D.sign(v, ref, x) > 0 else aft).append(x)

    def before(x, y):
        return -1 if D.sign(v, x, y) > 0 else 1

    return [ref] + sorted(fore, key=cmp_to_key(before)) + sorted(aft, key=cmp_to_key(before))


def rotation_windows_oracle(D, v):
    """The rotation and each position's window, as the contiguous run of
    positive signs after it."""
    rot = rotation_oracle(D, v)
    m = len(rot)
    avals = []
    j = 1
    for t in range(m):
        j = max(j, t + 1)
        while j - t < m and D.sign(v, rot[t], rot[j % m]) > 0:
            j += 1
        avals.append(j - t - 1)
    return rot, avals


def relabel_oracle(D, order):
    """The packed signature whose triple (i, j, k) carries
    D.sign(order[i], order[j], order[k]), one triple at a time."""
    m = len(order)
    out = PackedSignature(m, bytes((comb(m, 3) + 7) // 8))
    for i, j, k in combinations(range(m), 3):
        if D.sign(order[i], order[j], order[k]) > 0:
            out.flip_inplace((i, j, k))
    return out


def hull_order_oracle(D):
    n, sign = D.n, D.sign
    a, b = 0, 1
    for w in range(2, n):
        if sign(a, b, w) < 0:
            a, b = w, 0
            for x in range(1, w):
                if sign(a, b, x) < 0:
                    b = x
    rest = [v for v in range(n) if v != a]
    wins = {p: sum(1 for q in rest if q != p and sign(a, p, q) > 0) for p in rest}
    if sorted(wins.values()) != list(range(n - 1)):
        return None
    return [a] + sorted(rest, key=wins.__getitem__, reverse=True)


def is_realizable_oracle(D):
    """The hull order, then the signotope axiom checked on every 4-subset
    of the relabelled signs, one sign query at a time."""
    if D.n < 4:
        return True
    order = hull_order_oracle(D)
    if order is None:
        return False
    E = relabel_oracle(D, order[1:])
    for a, b, c, d in combinations(range(E.n), 4):
        seq = [E.sign(*t) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]
        if sum(1 for s, t in zip(seq, seq[1:]) if s != t) > 1:
            return False
    return True


def relabelled_upper(D, order):
    """up[a][b], a < b: the signs sign(order[a], order[b], order[k]) of all
    k > b at bit k - b - 1 (1 for +), for a < len(order) - 2; the upper rows
    of D relabelled by order, shifted down.

    Two transposes per vertex p = order[a]: p's rows taken in order are
    transposed, so that the rows of the transpose are indexed by the third
    vertex; taking those in order too and transposing back renumbers the
    third vertex as well.
    """
    m = len(order)
    N = _side(D.n)
    B = N // 8
    pick = itemgetter(*order)
    up = []
    for a in range(m - 2):
        T = _transpose(_pack(pick(D._rows[order[a]]), B), N)
        R = _transpose(_pack(pick(_unpack(T, D.n, B)), B), N)
        up.append(list(map(rshift, _unpack(R, m, B), range(1, m + 1))))
    return up


def is_signotope_oracle(m, row):
    """Whether every 4-subset a < b < c < d of m vertices changes sign at
    most once along abc, abd, acd, bcd.

    row[a][b] holds sign(a, b, k) for all k > b at bit k - b - 1
    (``relabelled_upper``), so one (a, b, c) tests every d > c at once.
    """
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


def realizable_after_flip_oracle(D, t):
    i, j, k = sorted(t)
    mid = None
    for d in range(D.n):
        if d in (i, j, k):
            continue
        s1, s2, s3 = D.sign(d, i, j), D.sign(d, i, k), D.sign(d, j, k)
        if s1 == s3 != s2:
            return False
        m = i if s1 != s2 else j if s1 == s3 else k
        if mid is not None and m != mid:
            return False
        mid = m
    return True


def double_oracle(D, partner):
    """The doubled signature's signs, one triple of copies at a time: the
    rule double_signature documents, read off the packed oracle."""
    P = packed(D)
    N = 2 * D.n
    out = PackedSignature(N, bytes((comb(N, 3) + 7) // 8))
    for a, b, c in combinations(range(N), 3):
        oa, ob, oc = a >> 1, b >> 1, c >> 1
        if oa != ob and ob != oc:
            s = P.sign(oa, ob, oc)
        else:
            v, xc = (oa, c) if oa == ob else (ob, a)
            x = xc >> 1
            t = partner[v]
            s = P.sign(v, t, x) if x != t else P.sign(v, t, partner[x]) * (1 if xc & 1 else -1)
        if s > 0:
            out.flip_inplace((a, b, c))
    return out


@cache
def chain_sets():
    """The point-set doubling chain 3 -> 96 from the triangle."""
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    out = [S]
    while S.n < 96:
        S, _ = double_points(S, halving_matching(S))
        out.append(S)
    return out


@cache
def k2643_subset(n, seed):
    golden = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    return PointSet(tuple(random.Random(seed).sample(list(golden), n)))


def drawings():
    """(label, signature): chain and k2643 signatures up to n = 96, and
    flip-search outputs from both at n = 24."""
    out = [(f"chain{S.n}", signature_of(S)) for S in chain_sets() if S.n > 3]
    out += [(f"k2643-{n}", signature_of(k2643_subset(n, n))) for n in (7, 12, 24, 48, 96)]
    flipped = [
        (f"flip({label})", sig_flip_search(D, SearchBudget(max_steps=400, rng_seed=D.n)))
        for label, D in out
        if D.n == 24
    ]
    assert any(F != D for (_, F), (_, D) in zip(flipped, [d for d in out if d[1].n == 24]))
    return out + flipped


def test_rows_match_packed_oracle_on_drawings():
    rng = random.Random(1801)
    for label, D in drawings():
        n = D.n
        P = packed(D)
        assert D.to_bytes() == P.to_bytes() and D.signs() == P.signs(), label
        assert hash(D) == hash((n, P.to_bytes())), label
        assert Signature(n, P.to_bytes()) == D == Signature.from_signs(n, P.signs()), label
        triples = list(combinations(range(n), 3))
        for t in triples if n <= 24 else rng.sample(triples, 300):
            for u in permutations(t):
                assert D.sign(*u) == P.sign(*u), (label, u)
        assert list(D.sweeps()) == list(P.sweeps()), label
        assert [rotation(D, v) for v in range(n)] == [rotation_oracle(P, v) for v in range(n)]
        assert count_crossings_sig(D) == count_crossings(P), label
        assert removal_values_sig(D) == removal_values(P), label
        for v in {0, n // 2, n - 1} if n <= 48 else {n // 3}:
            assert D.delete(v).to_bytes() == P.delete(v).to_bytes(), (label, v)
        assert is_realizable(D), label
        if n <= 24:
            assert is_realizable_oracle(P), label
        for t in triples if n <= 12 else rng.sample(triples, 60):
            assert realizable_after_flip(D, t) == realizable_after_flip_oracle(P, t), (label, t)


def test_flips_match_packed_oracle():
    # walks from the chain and from point sets that keep every flip
    # realizable_after_flip allows, and after 40 steps every flip: the
    # six-bit row flip against the one-bit packed flip
    rng = random.Random(1802)
    starts = [signature_of(S) for S in chain_sets() if 6 <= S.n <= 24]
    starts += [signature_of(rand_general(rng, n)) for n in (5, 8, 11)]
    checked = 0
    for D in starts:
        n = D.n
        P = packed(D)
        for step in range(60):
            t = tuple(rng.sample(range(n), 3))
            ok = is_realizable(D)
            assert n > 12 or ok == is_realizable_oracle(P)
            if ok:
                ok = realizable_after_flip(D, t)
                assert ok == realizable_after_flip_oracle(P, t)
                assert n > 12 or ok == is_realizable_oracle(_flipped(P, t))
                checked += 1
            if ok or step >= 40:
                if step % 2:
                    D = D.flip(t)
                else:
                    D._flip_inplace(t)
                P.flip_inplace(t)
            assert D.to_bytes() == P.to_bytes(), (n, step, t)
        assert all(D.sign(*t) == P.sign(*t) for t in combinations(range(n), 3))
        if is_realizable(D):
            assert list(D.sweeps()) == list(P.sweeps())
    assert checked >= 6 * 40


def _flipped(P, t):
    Q = PackedSignature(P.n, P.to_bytes())
    Q.flip_inplace(t)
    return Q


def test_relabel_matches_set_sign_oracle():
    # the transposed relabel of the scan oracle, against the per-triple
    # relabel
    rng = random.Random(1702)
    for n in range(3, 13):
        for _ in range(4):
            D = Signature(n, bytes(rng.getrandbits(8) for _ in range((comb(n, 3) + 7) // 8)))
            for order in (rng.sample(range(n), n), rng.sample(range(n), rng.randint(3, n))):
                m = len(order)
                E = relabel_oracle(D, order)
                up = relabelled_upper(D, order)
                assert len(up) == max(m - 2, 0)
                for a, b in combinations(range(m), 2):
                    if a < m - 2:
                        want = sum(1 << (k - b - 1) for k in range(b + 1, m) if E.sign(a, b, k) > 0)
                        assert up[a][b] == want, (n, order, a, b)


def test_scan_matches_relabel_oracle():
    # chain and k2643 signatures up to n = 96, where the scan takes more
    # than one tile, and random point sets' signatures up to n = 12; every
    # flip of those up to n = 12 and 40 random flips of the others, and a
    # walk of the flips realizable_after_flip allows: the tiled scan and
    # is_realizable agree with the transposed relabel and the
    # one-triple-at-a-time scan
    rng = random.Random(2201)
    starts = [signature_of(S) for S in chain_sets() if S.n >= 6]
    starts += [signature_of(k2643_subset(n, n)) for n in (24, 28, 48, 70, 96)]
    starts += [signature_of(rand_general(rng, n)) for n in range(5, 13) for _ in range(2)]
    assert max(D.n for D in starts) > 64
    outcomes = set()

    def check(D):
        order = _hull_order(D)
        if order is None:
            assert not is_realizable(D)
            return
        want = is_signotope_oracle(D.n - 1, relabelled_upper(D, order[1:]))
        assert _signotope_scan(D, order[1:]) == want, D.n
        assert is_realizable(D) == want, D.n
        outcomes.add((D.n > 64, want))

    for D in starts:
        n = D.n
        check(D)
        flips = combinations(range(n), 3) if n <= 12 else (rng.sample(range(n), 3) for _ in range(40))
        for t in flips:
            check(D.flip(t))
        E = D.copy()
        for _ in range(20):
            t = E._triple(rng.sample(range(n), 3))
            if realizable_after_flip(E, t):
                E._flip_inplace(t)
                check(E)
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_arbitrary_signs_match_packed_oracle():
    # padding bits set on purpose; the rows ignore them, as the packed
    # layout cleared them.  Up to n = 40 (the cube's sides 8, 16 and 32 and
    # its last n, 32) the rows equal the per-vertex build's, and up to
    # n = 20 every sign is checked against the packed layout too
    rng = random.Random(1803)
    for n in range(3, 41):
        for D in (Signature(n), convex_signature(n)):
            assert D._rows == _rows_by_vertex(n, int.from_bytes(D.to_bytes(), "little")), n
            assert Signature.from_signs(n, D.signs()) == D, n
        used = comb(n, 3) % 8
        for _ in range(3):
            raw = bytearray(rng.getrandbits(8) for _ in range((comb(n, 3) + 7) // 8))
            if used:
                raw[-1] |= 0xFF ^ ((1 << used) - 1)
            raw = bytes(raw)
            D = Signature(n, raw)
            assert D._rows == _rows_by_vertex(n, int.from_bytes(raw, "little")), n
            assert Signature.from_signs(n, D.signs()) == D, n
            if n > 20:
                continue
            P = PackedSignature(n, raw)
            assert D.to_bytes() == P.to_bytes() and D.signs() == P.signs()
            assert hash(D) == hash((n, P.to_bytes()))
            assert all(D.sign(*t) == P.sign(*t) for t in permutations(range(n), 3))
            if n > 3:
                v = rng.randrange(n)
                assert D.delete(v).to_bytes() == P.delete(v).to_bytes()
            if n <= 10:
                assert is_realizable(D) == is_realizable_oracle(P)


def test_double_signature_matches_packed_oracle():
    for S in chain_sets():
        if not 6 <= S.n <= 24:
            continue
        D = signature_of(S)
        M = halving_matching_sig(D)
        D2, _ = double_signature(D, M)
        partner = [slot_partner(D, M.assignments[v]) for v in range(D.n)]
        assert D2.to_bytes() == double_oracle(D, partner).to_bytes(), S.n


@pytest.fixture
def no_sign_queries(monkeypatch):
    def refuse(self, a, b, c):
        raise AssertionError("per-triple sign query on a row path")

    monkeypatch.setattr(Signature, "sign", refuse)


def test_row_paths_make_no_sign_queries(no_sign_queries):
    D = signature_of(k2643_subset(24, 24))
    P = packed(D)
    assert count_crossings_sig(D) == count_crossings(P)
    assert list(D.sweeps()) == list(P.sweeps())
    assert removal_values_sig(D) == removal_values(P)
    assert D.delete(5).to_bytes() == P.delete(5).to_bytes()
    assert is_realizable(D)
    assert realizable_after_flip(D, (1, 2, 3)) == realizable_after_flip_oracle(P, (1, 2, 3))


def _sweep_count(D):
    """The crossing count summed over the rotation sweeps' windows."""
    return crossings_from_windows(D.n, chain.from_iterable(avals for _, avals in D.sweeps()))


def test_signature_count_matches_rotation_sweeps(monkeypatch):
    # k2643 samples, the chain and random realizable signatures (of random
    # point sets, and flip-search walks from them): the row bit counts are
    # the sweeps' windows plus one 0 per vertex, so the counts agree
    rng = random.Random(2101)
    sigs = [signature_of(k2643_subset(n, n)) for n in (12, 24, 28, 96)]
    sigs += [signature_of(S) for S in chain_sets() if S.n > 3]
    sigs += [signature_of(rand_general(rng, n)) for n in range(4, 15)]
    sigs += [sig_flip_search(D, SearchBudget(max_steps=200, rng_seed=D.n)) for D in sigs[-4:]]
    counts = [_sweep_count(D) for D in sigs]
    for D in sigs:
        windows = sorted(chain.from_iterable(avals for _, avals in D.sweeps()))
        assert sorted(D.windows()) == [0] * D.n + windows, D.n

    def refuse(D, v):
        raise AssertionError("rotation sorted by a signature count")

    monkeypatch.setattr(signatures, "_rotation_windows", refuse)
    assert [count_crossings_sig(D) for D in sigs] == counts
