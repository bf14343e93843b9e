"""Signature container, counting, realizability against the 5-vertex catalog
oracle, and the catalog itself, derived here by two independent routes."""

import ast
import random
from functools import cache
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossnum
from crossnum import signatures
from crossnum.doubling import double_points, double_signature
from crossnum.halving import halving_matching, halving_matching_sig
from crossnum.heuristics import SearchBudget, shrink, sig_flip_search
from crossnum.geometry import DegenerateError, PointSet, count_crossings, orient, removal_values, sweep_around
from crossnum.signatures import (
    Signature,
    convex_signature,
    count_crossings_sig,
    count_crossings_sig_brute,
    delete_vertex,
    flip,
    is_realizable,
    realizable_after_flip,
    removal_values_sig,
    rotation,
    signature_of,
)

from conftest import rand_general


def test_counts_agree_with_geometry():
    rng = random.Random(7)
    for _ in range(150):
        S = rand_general(rng, rng.randint(4, 11))
        D = signature_of(S)
        c = count_crossings(S)
        assert count_crossings_sig(D) == c
        assert count_crossings_sig_brute(D) == c


def test_geometric_signatures_realizable():
    rng = random.Random(17)
    for _ in range(60):
        assert is_realizable(signature_of(rand_general(rng, rng.randint(5, 10))))


def test_convex_signature():
    for n in range(3, 12):
        D = convex_signature(n)
        assert all(D.sign(i, j, k) == 1 for i, j, k in combinations(range(n), 3))
        if n >= 4:
            assert count_crossings_sig(D) == comb(n, 4)
        assert is_realizable(D)


def test_delete_commutes_with_points():
    rng = random.Random(27)
    for _ in range(60):
        n = rng.randint(4, 9)
        S = rand_general(rng, n)
        v = rng.randrange(n)
        assert delete_vertex(signature_of(S), v) == signature_of(S.delete(v))


def test_removal_values_match_geometry():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(4, 10)
        S = rand_general(rng, n)
        D = signature_of(S)
        vals = removal_values_sig(D)
        assert vals == removal_values(S)
        for v in range(n):
            assert vals[v] == count_crossings_sig_brute(delete_vertex(D, v))


def test_realizable_after_flip_matches_full_check():
    # every realizable 4-vertex pattern, including flips into the cyclic ones
    for mask in range(16):
        D = Signature(4, bytes([mask]))
        if is_realizable(D):
            for t in combinations(range(4), 3):
                assert realizable_after_flip(D, t) == is_realizable(D.flip(t)), (mask, t)
    assert not realizable_after_flip(Signature(4, b"\x04"), (0, 1, 2))
    # precondition: D realizable; generator walks through full-checked flips
    rng = random.Random(47)
    for _ in range(80):
        n = rng.randint(4, 14)
        D = signature_of(rand_general(rng, n))
        for _ in range(rng.randint(0, 6)):
            t = tuple(sorted(rng.sample(range(n), 3)))
            F = D.flip(t)
            if is_realizable(F):
                D = F
        t = tuple(sorted(rng.sample(range(n), 3)))
        before = D.copy()
        assert realizable_after_flip(D, t) == is_realizable(D.flip(t))
        assert D == before  # query must not mutate


def test_realizable_after_flip_on_every_small_signature():
    for n in (3, 4, 5):
        nbytes = (comb(n, 3) + 7) // 8
        for mask in range(1 << comb(n, 3)):
            D = Signature(n, mask.to_bytes(nbytes, "little"))
            if is_realizable(D):
                for t in combinations(range(n), 3):
                    assert realizable_after_flip(D, t) == is_realizable(D.flip(t)), (n, mask, t)


@pytest.mark.parametrize("start", ["convex", "points"])
def test_realizable_after_flip_along_flip_walks(start):
    rng = random.Random(97)
    kept = 0
    for _ in range(30):
        n = rng.randint(5, 16)
        D = convex_signature(n) if start == "convex" else signature_of(rand_general(rng, n))
        for _ in range(40):
            t = tuple(rng.sample(range(n), 3))  # unsorted on purpose
            F = D.flip(t)
            ok = is_realizable(F)
            assert realizable_after_flip(D, t) == ok, (n, t)
            if ok:
                D = F
                kept += 1
    assert kept >= 100  # the walks leave their starting signatures


def test_flip_rejects_invalid_triples():
    D = convex_signature(6)
    for t in ((1, 3, 9), (2, 2, 2), (0, 0, 2), (-1, 0, 1), (0, 1), (0, 1, 2, 3)):
        for call in (D.flip, lambda t: flip(D, t), lambda t: realizable_after_flip(D, t)):
            with pytest.raises(ValueError):
                call(t)
    assert D == convex_signature(6)
    assert D.flip((5, 1, 3)) == D.flip((1, 3, 5))


def test_sign_rejects_out_of_range_vertices():
    D = convex_signature(6)
    for t in ((0, 1, 9), (9, 1, 0), (0, 1, 6), (-1, 0, 1), (2, -1, 4), (3, 3, 1)):
        with pytest.raises(ValueError):
            D.sign(*t)
        with pytest.raises(ValueError):
            D.set_sign(*t, -1)
    assert D == convex_signature(6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_parity_property(data):
    # parity handling is a property of the container, for arbitrary bits
    n = data.draw(st.integers(4, 8))
    D = Signature(n)
    for t in combinations(range(n), 3):
        D.set_sign(*t, data.draw(st.sampled_from((1, -1))))
    trio = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
    i, j, k = data.draw(st.permutations(trio))
    base = D.sign(*trio)
    inversions = sum(
        1 for a, b in combinations((i, j, k), 2) if a > b
    )
    assert D.sign(i, j, k) == (base if inversions % 2 == 0 else -base)


def test_set_sign_round_trip():
    rng = random.Random(57)
    D = signature_of(rand_general(rng, 7))
    E = Signature(7)
    for i, j, k in combinations(range(7), 3):
        E.set_sign(k, i, j, D.sign(k, i, j))
    assert E == D
    for i, j, k in combinations(range(7), 3):
        s = D.sign(i, j, k)
        assert D.sign(j, i, k) == -s
        assert D.sign(i, k, j) == -s
        assert D.sign(k, i, j) == s
        assert D.sign(j, k, i) == s
        assert D.sign(k, j, i) == -s


def test_flip_changes_exactly_one_triple():
    D = convex_signature(6)
    F = flip(D, (1, 3, 5))
    assert D.sign(1, 3, 5) == 1 and F.sign(1, 3, 5) == -1
    diff = sum(
        1
        for t in combinations(range(6), 3)
        if F.sign(*t) != D.sign(*t)
    )
    assert diff == 1
    assert flip(D, (5, 3, 1)) == F


def _random_signature(rng, n):
    return Signature(n, bytes(rng.getrandbits(8) for _ in range((comb(n, 3) + 7) // 8)))


def test_signs_round_trip_and_agree_with_sign():
    # C(n, 3) mod 8 takes the values 1, 4, 2, 4, 3, 0, 4, 0, 5, 4 here, so
    # most sizes end in a partly filled byte
    rng = random.Random(1701)
    for n in range(3, 13):
        triples = list(combinations(range(n), 3))
        probe = Signature(n)
        assert [probe.rank(*t) for t in triples] == list(range(comb(n, 3)))
        for _ in range(6):
            D = _random_signature(rng, n)
            signs = D.signs()
            assert len(signs) == comb(n, 3)
            assert Signature.from_signs(n, signs) == D
            for t in triples:
                assert signs[D.rank(*t)] == ("+" if D.sign(*t) > 0 else "-")
    assert convex_signature(7).signs() == "+" * 35
    assert Signature(7).signs() == "-" * 35


@pytest.mark.parametrize(
    "n,signs",
    [
        (4, "+++"),
        (4, "+++++"),
        (4, "++x+"),
        (4, "++ +"),
        (4, "1010"),
        (4, "+-10"),
        (5, "+" * 9 + "\n"),
        (3, ""),
        (2, ""),
    ],
)
def test_from_signs_rejects_malformed(n, signs):
    with pytest.raises(ValueError):
        Signature.from_signs(n, signs)


def test_signature_of_matches_orient():
    rng = random.Random(1703)
    for n in range(3, 16):
        S = rand_general(rng, n)
        D = signature_of(S)
        for i, j, k in combinations(range(n), 3):
            assert D.sign(i, j, k) == orient(S[i], S[j], S[k])


def test_only_signatures_reads_the_packed_bits():
    """Every other module reads and writes signs through Signature's
    methods (from_signs, signs, to_bytes, sign, ...), so the sign rows and
    the packed bit layout are known in one place."""
    root = Path(crossnum.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "signatures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_of_rows", "_packed"):
                found.append((path.name, node.lineno, node.attr))
    assert not found, found


def test_rotation_matches_geometric_sweep():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(4, 9)
        S = rand_general(rng, n)
        v = rng.randrange(n)
        rot = rotation(signature_of(S), v)
        order, _ = sweep_around(S.points, v)
        m = len(rot)
        i0 = order.index(rot[0])
        assert [order[(i0 + d) % m] for d in range(m)] == rot
        # both kinds' sweeps: the same window around every center
        sweeps = list(S.sweeps())
        assert sweeps == [sweep_around(S.points, c) for c in range(n)]
        for (order, avals), (rot, rot_avals) in zip(sweeps, signature_of(S).sweeps()):
            assert dict(zip(order, avals)) == dict(zip(rot, rot_avals))


# ---------------------------------------------------------------------------
# the O(n^4) realizability check against the 5-subset catalog oracle
# ---------------------------------------------------------------------------


TRIPLES5 = list(combinations(range(5), 3))


@cache
def realizable5():
    """The 264 realizable 10-bit masks of 5 vertices (see _mask5), from the
    geometric route; test_catalog_dual_route checks it against the axioms."""
    return frozenset(_route_geometric())


def _mask5(D, sub):
    """10-bit sign mask of a 5-subset, lex triple order, 1 for +."""
    m = 0
    for r, (a, b, c) in enumerate(TRIPLES5):
        if D.sign(sub[a], sub[b], sub[c]) > 0:
            m |= 1 << r
    return m


def realizable_by_catalog(D):
    """Slow oracle: every 5-subset's sign pattern occurs in some point set.

    Five-vertex consistency characterizes the signatures of pseudolinear
    drawings on at least 5 vertices.
    """
    catalog = realizable5()
    return all(_mask5(D, sub) in catalog for sub in combinations(range(D.n), 5))


def _flipped_point_signature(data, n):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    D = signature_of(rand_general(rng, n))
    for _ in range(data.draw(st.integers(0, 3))):
        D = D.flip(tuple(sorted(rng.sample(range(n), 3))))
    return D


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_realizable_matches_catalog_on_point_signatures(data):
    D = _flipped_point_signature(data, data.draw(st.integers(5, 9)))
    assert is_realizable(D) == realizable_by_catalog(D)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_realizable_matches_catalog_on_arbitrary_signs(data):
    n = data.draw(st.integers(5, 9))
    nbytes = (comb(n, 3) + 7) // 8
    D = Signature(n, data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
    assert is_realizable(D) == realizable_by_catalog(D)


def test_realizable_matches_catalog_on_every_5_vertex_mask():
    for mask in range(1024):
        D = Signature(5, mask.to_bytes(2, "little"))
        assert is_realizable(D) == (mask in realizable5()), mask


def test_realizable_4_vertex_patterns_are_the_point_patterns():
    grid = [(x, y) for x in range(4) for y in range(4)]
    from_points = set()
    for sub in combinations(grid, 4):
        for pts in permutations(sub):
            try:
                from_points.add(signature_of(pts).to_bytes())
            except DegenerateError:
                break
    passing = {bytes([m]) for m in range(16) if is_realizable(Signature(4, bytes([m])))}
    assert passing == from_points and len(passing) == 14
    assert b"\x05" not in passing and b"\x0a" not in passing


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_realizable_invariant_under_relabel_and_mirror(data):
    n = data.draw(st.integers(4, 10))
    D = _flipped_point_signature(data, n)
    perm = data.draw(st.permutations(range(n)))
    mirror = data.draw(st.sampled_from((1, -1)))
    E = Signature(n)
    for a, b, c in combinations(range(n), 3):
        E.set_sign(perm[a], perm[b], perm[c], mirror * D.sign(a, b, c))
    assert is_realizable(E) == is_realizable(D)


# ---------------------------------------------------------------------------
# dual-route re-derivation of the 5-vertex realizability catalog
# ---------------------------------------------------------------------------


def _mask_of_points(pts):
    m = 0
    for t, (i, j, k) in enumerate(TRIPLES5):
        o = orient(pts[i], pts[j], pts[k])
        if o == 0:
            return None
        if o > 0:
            m |= 1 << t
    return m


def _sign_from_mask(m, i, j, k):
    s = 1
    if i > j:
        i, j, s = j, i, -s
    if j > k:
        j, k, s = k, j, -s
    if i > j:
        i, j, s = j, i, -s
    return s if (m >> TRIPLES5.index((i, j, k))) & 1 else -s


def _route_geometric():
    """Realizable masks: grid subsets closed under relabeling + mirror."""
    grid = [(x, y) for x in range(5) for y in range(5)]
    base = set()
    for sub in combinations(grid, 5):
        m = _mask_of_points(sub)
        if m is not None:
            base.add(m)

    def relabel(m, perm):
        out = 0
        for t, (i, j, k) in enumerate(TRIPLES5):
            if _sign_from_mask(m, perm[i], perm[j], perm[k]) > 0:
                out |= 1 << t
        return out

    closed = set()
    for m in base:
        for perm in permutations(range(5)):
            closed.add(relabel(m, perm))
            closed.add(relabel(m ^ 0b1111111111, perm))
    return closed


def _route_axiomatic():
    """Realizable masks: three-term sign exchange + acyclicity axioms."""

    def exchange_ok(m):
        for a, b, c, d, e in permutations(range(5)):
            s1 = _sign_from_mask(m, a, b, c) * _sign_from_mask(m, a, d, e)
            s2 = _sign_from_mask(m, a, b, d) * _sign_from_mask(m, a, c, e)
            s3 = _sign_from_mask(m, a, b, e) * _sign_from_mask(m, a, c, d)
            if s1 == s3 == 1 and s2 == -1:
                return False
            if s1 == s3 == -1 and s2 == 1:
                return False
        return True

    def acyclic_ok(m):
        for sub in combinations(range(5), 4):
            signs = [
                (-1) ** i * _sign_from_mask(m, *(sub[j] for j in range(4) if j != i))
                for i in range(4)
            ]
            if all(s == 1 for s in signs) or all(s == -1 for s in signs):
                return False
        return True

    return {m for m in range(1024) if exchange_ok(m) and acyclic_ok(m)}


def test_catalog_dual_route():
    geo = _route_geometric()
    axiom = _route_axiomatic()
    assert geo == axiom
    assert frozenset(geo) == realizable5()
    assert len(geo) == 264
    assert 0b1111111111 in geo  # convex position


def test_realizable_mark():
    # set by signature_of, a True from is_realizable, double_signature, delete
    # of a marked signature and kept flips; cleared by every other change of
    # a sign; a signature built from bytes or signs starts unmarked
    D = signature_of(rand_general(random.Random(2102), 9))
    assert D._realizable
    E = Signature(D.n, D.to_bytes())
    assert E == D and not E._realizable
    assert not Signature.from_signs(D.n, D.signs())._realizable
    assert not E.delete(3)._realizable and not E.copy()._realizable
    assert D.delete(3)._realizable and D.copy()._realizable
    assert is_realizable(E) and E._realizable
    t = (0, 1, 2)
    assert not D.flip(t)._realizable and D._realizable
    F = D.copy()
    F.set_sign(*t, F.sign(*t))  # the same sign: nothing changes
    assert F._realizable
    F.set_sign(*t, -F.sign(*t))
    assert not F._realizable
    F = D.copy()
    F._flip_inplace(t)
    assert not F._realizable
    assert sig_flip_search(E, SearchBudget(max_steps=60, rng_seed=1))._realizable

    S = PointSet(((0, 0), (1, 0), (0, 1)))
    while S.n < 12:
        S, _ = double_points(S, halving_matching(S))
    C = Signature(12, signature_of(S).to_bytes())
    D2, _ = double_signature(C, halving_matching_sig(C))
    assert D2._realizable


def test_marked_signatures_skip_the_opening_check(monkeypatch):
    calls = []
    real = signatures.is_realizable
    monkeypatch.setattr(signatures, "is_realizable", lambda D: calls.append(D.n) or real(D))
    D = signature_of(rand_general(random.Random(2103), 10))
    shrink(D, 6, 2)
    sig_flip_search(D, SearchBudget(max_steps=40, rng_seed=2))
    assert calls == []
    shrink(Signature(D.n, D.to_bytes()), 6)
    assert calls == [10]


def test_marked_signature_broken_by_set_sign_is_rejected():
    D = signature_of(rand_general(random.Random(2104), 8))
    t = next(t for t in combinations(range(8), 3) if not realizable_after_flip(D, t))
    D.set_sign(*t, -D.sign(*t))
    assert not is_realizable(Signature(8, D.to_bytes()))
    with pytest.raises(ValueError, match="not realizable"):
        shrink(D.copy(), 5)
    with pytest.raises(ValueError, match="not realizable"):
        sig_flip_search(D.copy(), SearchBudget(max_steps=5))
