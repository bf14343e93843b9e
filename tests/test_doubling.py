"""Doubling constructions, predicted growth, and exact bounds."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossnum.doubling
from crossnum.doubling import (
    BoundValue,
    VerificationError,
    double_points,
    double_signature,
    harary_hill,
    predicted_double,
    pseudo_bound,
    rect_bound,
)
from crossnum.geometry import DegenerateError, PointSet, count_crossings, count_crossings_brute
from crossnum.halving import (
    HalvingLine,
    HalvingMatching,
    NoMatching,
    halving_matching,
    halving_matching_sig,
    slot_partner,
)
from crossnum.signatures import (
    Signature,
    convex_signature,
    count_crossings_sig_brute,
    is_realizable,
    signature_of,
)

from conftest import convex_points, rand_general

TRIANGLE = PointSet(((0, 0), (1, 0), (0, 1)))


def double_points_linear(S, M):
    """Oracle for double_points: the first of 65 scales lam0 * 2**k, one bit
    apart, whose doubled set has the predicted count; (set, lam)."""
    pts = list(S)
    n = len(pts)
    predicted = predicted_double("rect", n, count_crossings(S))
    dirs = [tuple(M.assignments[v].direction) for v in range(n)]
    lam = 4 * n * max(max(abs(dx), abs(dy)) for dx, dy in dirs)
    for _ in range(65):
        new_pts = []
        for (px, py), (dx, dy) in zip(pts, dirs):
            new_pts.append((lam * px + dx, lam * py + dy))
            new_pts.append((lam * px - dx, lam * py - dy))
        S2 = PointSet(new_pts)
        try:
            if count_crossings(S2) == predicted:
                return S2, lam
        except DegenerateError:
            pass
        lam *= 2
    raise VerificationError("doubled set failed verification at every scale")


def random_doubling_inputs():
    """The seeded random point sets the doubling-chain tests start from."""
    rng = random.Random(23)
    return [rand_general(rng, rng.choice([3, 5, 7, 9])) for _ in range(15)]


@pytest.fixture(scope="module")
def triangle_chain():
    """The doubling chain 3 -> 96 from the triangle: {n: (set, report)}."""
    S, chain = TRIANGLE, {3: (TRIANGLE, None)}
    while S.n < 96:
        S, rep = double_points(S, halving_matching(S))
        chain[S.n] = (S, rep)
    return chain


def test_predicted_double_values():
    assert predicted_double("rect", 3, 0) == 3
    assert predicted_double("pseudo", 3, 0) == 6
    assert predicted_double("rect", 6, 3) == 153
    assert predicted_double("pseudo", 6, 3) == 153
    assert predicted_double("rectilinear", 5, 0) == 50
    assert predicted_double("pseudo", 5, 1) == 71


def test_triangle_chain():
    T = convex_points(3)
    assert count_crossings_brute(T) == 0
    S6, rep1 = double_points(T, halving_matching(T))
    assert S6.n == 6
    assert rep1.output_crossings == 3 == count_crossings_brute(S6)
    M2 = halving_matching(S6)
    assert isinstance(M2, HalvingMatching)
    S12, rep2 = double_points(S6, M2)
    assert rep2.output_crossings == 153 == count_crossings_brute(S12)


def test_convex5_double():
    C5 = convex_points(5)
    S10, rep = double_points(C5, halving_matching(C5))
    assert rep.output_crossings == 130 == count_crossings_brute(S10)


def test_random_point_doubling_chains():
    for S in random_doubling_inputs():
        n = S.n
        S2, rep = double_points(S, halving_matching(S))
        cr = count_crossings(S)
        assert rep.output_crossings == count_crossings(S2)
        assert rep.output_crossings == predicted_double("rect", n, cr)
        M2 = halving_matching(S2)
        assert isinstance(M2, HalvingMatching)  # doubled sets stay matchable
        if n <= 5:
            S4, rep4 = double_points(S2, M2)
            assert rep4.output_crossings == predicted_double(
                "rect", 2 * n, rep.output_crossings
            )


def _assert_matches_oracle(S):
    M = halving_matching(S)
    S2, rep = double_points(S, M)
    assert (S2, rep.scale_used) == double_points_linear(S, M)
    return S2


def test_double_points_matches_linear_oracle(triangle_chain):
    for n in (3, 6, 12, 24, 48):
        S, _ = triangle_chain[n]
        assert _assert_matches_oracle(S) == triangle_chain[2 * n][0]
    for S in random_doubling_inputs():
        S2 = _assert_matches_oracle(S)
        if S.n <= 5:
            _assert_matches_oracle(S2)


def test_double_96_to_192(triangle_chain):
    S, _ = triangle_chain[96]
    cr = count_crossings(S)
    M = halving_matching(S)
    S2, rep = double_points(S, M)
    assert S2.n == 192
    # past the 65 scales lam0 * 2**k, k < 65, that double_points_linear tries
    lam0 = 4 * 96 * max(max(map(abs, line.direction)) for line in M.assignments.values())
    assert rep.scale_used == lam0 << 68
    cr2 = count_crossings(S2)
    assert cr2 == rep.output_crossings == predicted_double("rect", 96, cr)
    assert rect_bound(192, cr2) == rect_bound(96, cr)


def _stable_exponent(S, M):
    """Smallest k with lam0 * 2**k >= 16PV + 8V^2 + 1, computed directly."""
    P = max(max(abs(x), abs(y)) for x, y in S)
    V = max(max(abs(c) for c in line.direction) for line in M.assignments.values())
    lam, k = 4 * S.n * V, 0
    while lam < 16 * P * V + 8 * V * V + 1:
        lam, k = 2 * lam, k + 1
    return k


def _count_calls(monkeypatch):
    calls = []
    real = crossnum.doubling.count_crossings

    def counted(S):
        calls.append(S.n)
        return real(S)

    monkeypatch.setattr(crossnum.doubling, "count_crossings", counted)
    return calls


def test_double_points_fails_fast(monkeypatch):
    # horizontal lines through a scaled convex pentagon are not halving lines
    S = PointSet([(1000 * x, 1000 * y) for x, y in convex_points(5)])
    M = HalvingMatching({v: HalvingLine(v, None, (1, 0)) for v in range(5)})
    k = _stable_exponent(S, M)
    assert k >= 8
    calls = _count_calls(monkeypatch)
    with pytest.raises(VerificationError, match=r"170 crossings at every scale .*excess 40"):
        double_points(S, M)
    # one count of the input, then the probes of the doubled sets
    assert calls[0] == 5 and len(calls) - 1 <= 2 + math.ceil(math.log2(k))


def test_double_points_degenerate_at_every_scale(monkeypatch):
    # partners 0 and 1 both point along the line through them: their four
    # copies are collinear at every scale
    S = convex_points(6)
    (x0, y0), (x1, y1) = S[0], S[1]
    v = (x1 - x0, y1 - y0)
    lines = [(1, v), (0, v), (3, (1, 0)), (2, (1, 0)), (5, (0, 1)), (4, (0, 1))]
    M = HalvingMatching({a: HalvingLine(a, b, d) for a, (b, d) in enumerate(lines)})
    k = _stable_exponent(S, M)
    assert k >= 1
    calls = _count_calls(monkeypatch)
    with pytest.raises(VerificationError, match="degenerate at every scale"):
        double_points(S, M)
    assert len(calls) - 1 <= 2 + math.ceil(math.log2(k))
    zero = HalvingMatching({a: HalvingLine(a, b, (0, 0)) for a, (b, _) in enumerate(lines)})
    with pytest.raises(VerificationError, match="degenerate at every scale"):
        double_points(S, zero)


def _chain_step(triangle_chain, n):
    """(S, M, lam0) of the chain step n -> 2n, whose scales are lam0 << k."""
    S, _ = triangle_chain[n]
    M = halving_matching(S)
    lam0 = 4 * n * max(max(map(abs, line.direction)) for line in M.assignments.values())
    return S, M, lam0


def test_limit_exponent_predicts_the_chain(triangle_chain, monkeypatch):
    for n in (24, 48, 96):
        S, M, lam0 = _chain_step(triangle_chain, n)
        calls = _count_calls(monkeypatch)
        _, rep = double_points(S, M)
        monkeypatch.undo()
        k = (rep.scale_used // lam0).bit_length() - 1
        assert rep.scale_used == lam0 << k
        dirs = [tuple(M.assignments[v].direction) for v in range(n)]
        assert crossnum.doubling._limit_exponent(list(S), dirs, lam0) == k
        # one count of the input, then the guess and the scale below it
        assert calls[0] == n and len(calls) - 1 <= 2


def test_double_points_search_from_a_wrong_guess(triangle_chain, monkeypatch):
    for n in (24, 48):
        S, M, lam0 = _chain_step(triangle_chain, n)
        k = (triangle_chain[2 * n][1].scale_used // lam0).bit_length() - 1
        expected = double_points_linear(S, M)
        assert expected[1] == lam0 << k
        for guess in (k - 3, k + 3):  # gallops up, then bisects down
            monkeypatch.setattr(crossnum.doubling, "_limit_exponent", lambda *_, g=guess: g)
            S2, rep = double_points(S, M)
            assert (S2, rep.scale_used) == expected


def test_signature_doubling_chain():
    D3 = convex_signature(3)
    D6, rep = double_signature(D3, halving_matching_sig(D3))
    assert D6.n == 6 and rep.output_crossings == 6
    assert is_realizable(D6)
    assert count_crossings_sig_brute(D6) == 6


def test_random_signature_doubling():
    rng = random.Random(24)
    odd = even = 0
    plan = [3, 5, 7] * 3 + [6, 10] * 3
    for n in plan:
        if n % 2 == 0:
            S0 = rand_general(rng, n // 2)
            S = double_points(S0, halving_matching(S0))[0]
            D = signature_of(S)
        else:
            D = signature_of(rand_general(rng, n))
        M = halving_matching_sig(D)
        if isinstance(M, NoMatching):
            assert D.n % 2 == 0  # odd matchings always exist
            continue
        D2, rep = double_signature(D, M)
        assert count_crossings_sig_brute(D2) == rep.output_crossings
        assert rep.output_crossings == predicted_double(
            "pseudo", D.n, count_crossings_sig_brute(D)
        )
        assert is_realizable(D2)
        if D.n % 2:
            odd += 1
        else:
            even += 1
    assert odd >= 3 and even >= 3


def double_signature_per_triple(D, M):
    """Oracle for double_signature's signs: the same rule, one sign query and
    one set_sign per triple of copies."""
    n = D.n
    t = [slot_partner(D, M.assignments[v]) for v in range(n)]
    out = Signature(2 * n)
    for a, b, c in combinations(range(2 * n), 3):
        oa, ob, oc = a >> 1, b >> 1, c >> 1
        if oa != ob and ob != oc:
            s = D.sign(oa, ob, oc)
        elif oa == ob:
            x = oc
            s = D.sign(oa, t[oa], x) if x != t[oa] else D.sign(oa, t[oa], t[x]) * (-1 if c % 2 == 0 else 1)
        else:
            x = oa
            s = D.sign(ob, t[ob], x) if x != t[ob] else D.sign(ob, t[ob], t[x]) * (-1 if a % 2 == 0 else 1)
        out.set_sign(a, b, c, s)
    return out


def random_signature_doubling_inputs():
    """The seeded signatures test_random_signature_doubling starts from."""
    rng = random.Random(24)
    out = []
    for n in [3, 5, 7] * 3 + [6, 10] * 3:
        if n % 2 == 0:
            S0 = rand_general(rng, n // 2)
            out.append(signature_of(double_points(S0, halving_matching(S0))[0]))
        else:
            out.append(signature_of(rand_general(rng, n)))
    return out


def test_double_signature_matches_per_triple_oracle(triangle_chain):
    chain = [signature_of(triangle_chain[n][0]) for n in (3, 6, 12, 24)]
    checked = 0
    for D in chain + random_signature_doubling_inputs():
        M = halving_matching_sig(D)
        if isinstance(M, NoMatching):
            continue
        assert double_signature(D, M)[0] == double_signature_per_triple(D, M), D.n
        checked += 1
    assert checked >= 4 + 12


def test_cross_module_even_doubling_equality():
    rng = random.Random(25)
    hits = 0
    for _ in range(25):
        S0 = rand_general(rng, rng.choice([3, 5]))
        S = double_points(S0, halving_matching(S0))[0]
        D = signature_of(S)
        Mg = halving_matching(S)
        Ms = halving_matching_sig(D)
        if not (isinstance(Mg, HalvingMatching) and isinstance(Ms, HalvingMatching)):
            continue
        _, repg = double_points(S, Mg)
        _, reps = double_signature(D, Ms)
        assert repg.output_crossings == reps.output_crossings
        hits += 1
    assert hits >= 10


def test_golden_bounds():
    b = rect_bound(2643, 771218714414)
    assert (b.numerator, b.denominator) == (43317371729896, 113858494707069)
    b2 = pseudo_bound(2205, 373382224051)
    assert (b2.numerator, b2.denominator) == (5995534434121, 15759524733750)
    assert rect_bound(3, 0).value == Fraction(8, 21)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 1500), st.integers(0, 10**12))
def test_parity_identity_property(half, cr):
    n = 2 * half  # even n: the two bounds coincide exactly
    assert pseudo_bound(n, cr).value == rect_bound(n, cr).value


def test_bound_monotone_and_parse():
    assert rect_bound(10, 100).value < rect_bound(10, 101).value
    b = rect_bound(2643, 771218714414)
    assert BoundValue.parse(str(b), "rect") == b
    with pytest.raises(ValueError):
        BoundValue(2, 4, "rect")  # not in lowest terms


def test_harary_hill():
    assert [harary_hill(k) for k in range(1, 9)] == [0, 0, 0, 0, 1, 3, 9, 18]
