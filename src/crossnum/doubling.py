"""Doubling constructions and the crossing-constant bound formulas.

Doubling replaces each vertex with two copies pulled apart along its matched
halving line.  The crossing count of the result obeys an exact recurrence,
so both doubling operations verify their output against the predicted count
-- and, for signatures, against realizability -- before returning; a result
is never handed back unverified.

The bound formulas turn a drawing's size and crossing count into exact
rational upper bounds on the rectilinear and pseudolinear crossing
constants.  Everything here is integer or Fraction arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .geometry import DegenerateError, PointSet, _points, count_crossings
from .signatures import Signature, count_crossings_sig, is_realizable
from .halving import HalvingMatching, slot_partner


class VerificationError(RuntimeError):
    """A constructed drawing failed its exactness or realizability gate."""


def normalize_kind(kind):
    """Map 'rect'/'rectilinear' and 'pseudo'/'pseudolinear' to short names."""
    k = str(kind).lower()
    if k in ("rect", "rectilinear"):
        return "rect"
    if k in ("pseudo", "pseudolinear"):
        return "pseudo"
    raise ValueError(f"unknown drawing kind: {kind!r}")


@dataclass(frozen=True)
class BoundValue:
    """An exact rational bound on a crossing constant, in lowest terms."""

    numerator: int
    denominator: int
    kind: str

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if gcd(self.numerator, self.denominator) != 1:
            raise ValueError("bound must be in lowest terms")
        if self.kind not in ("rect", "pseudo"):
            raise ValueError(f"unknown drawing kind: {self.kind!r}")

    @property
    def value(self):
        return Fraction(self.numerator, self.denominator)

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    @classmethod
    def parse(cls, text, kind):
        num, _, den = text.strip().partition("/")
        return cls(int(num), int(den) if den else 1, normalize_kind(kind))


def _as_bound(value, kind):
    f = Fraction(value)
    return BoundValue(f.numerator, f.denominator, kind)


def predicted_double(kind, n, cr):
    """Exact crossing count of the doubled drawing of an n-vertex one.

    Rectilinear: 16*cr + (n/2)(2n^2 - 7n + 5).  Pseudolinear:
    16*cr + 2n(ceil(n/2)^2 + floor(n/2)^2) - 7n^2/2 + 5n/2; the two agree
    for even n.  Always an integer.
    """
    kind = normalize_kind(kind)
    if n < 3:
        raise ValueError("need n >= 3")
    if cr < 0:
        raise ValueError("crossing count must be nonnegative")
    if kind == "rect":
        val = 16 * cr + Fraction(n, 2) * (2 * n * n - 7 * n + 5)
    else:
        h1, h2 = (n + 1) // 2, n // 2
        val = 16 * cr + 2 * n * (h1 * h1 + h2 * h2) - Fraction(7 * n * n - 5 * n, 2)
    if val.denominator != 1:
        raise ValueError(f"non-integral predicted count for n={n}")
    return int(val)


@dataclass(frozen=True)
class DoublingReport:
    """Receipt of a verified doubling step.

    scale_used is the magnification lam of the returned point set (0 for
    signatures, which have no coordinates); retries is the number of scales
    tried whose count missed the prediction or was degenerate.
    """

    input_n: int
    input_crossings: int
    output_n: int
    output_crossings: int
    predicted_crossings: int
    scale_used: int
    retries: int

    def __post_init__(self):
        if self.output_crossings != self.predicted_crossings:
            raise ValueError("report requires output == predicted")


def _limit_exponent(pts, dirs, lam0):
    """The smallest k from which every orientation of both copies of one
    vertex with a copy of another is at its limit as lam = lam0 * 2**k grows.

    That orientation is -2*(lam*A' + s*X) with s = +-1 (see double_points),
    at its limit exactly when lam*|A'| > |X|, that is from
    k = (|X| // (lam0*|A'|)).bit_length() on.  Raises VerificationError when
    A' = X = 0 for some pair, whose copies are then collinear at every scale.
    """
    k = 0
    for a, ((pax, pay), (vax, vay)) in enumerate(zip(pts, dirs)):
        c = vax * pay - vay * pax
        for x, ((pxx, pxy), (vxx, vxy)) in enumerate(zip(pts, dirs)):
            A = vax * pxy - vay * pxx - c
            X = vax * vxy - vay * vxx
            if A:
                k = max(k, (abs(X) // (lam0 * abs(A))).bit_length())
            elif not X and a != x:
                raise VerificationError("doubled set is degenerate at every scale")
    return k


def double_points(S, M):
    """The doubled point set of S under halving matching M, verified.

    Each p_i becomes lam*p_i + v_i and lam*p_i - v_i, where v_i is the
    integer direction of i's matched line and lam a magnification standing
    in for 1/epsilon.  The scales tried are lam0 * 2**k with
    lam0 = 4*n*max|v|_inf, and the result is the first scale found whose
    set is in general position with the rectilinear recurrence count,
    checked by one exact count.

    A large enough scale is certified.  With P = max|p|_inf and
    V = max|v|_inf, three doubled points from distinct originals a, b, c
    have orientation lam^2*A + lam*B + C, where A = orient(p_a, p_b, p_c) is
    a nonzero integer (S is in general position), |B| <= 16PV and
    |C| <= 8V^2.  Both copies of a with the copy x_s = lam*p_x + s*v_x
    (s = +-1) of x have orientation -2*(lam*A' + s*X), where
    A' = orient(p_a, p_a + v_a, p_x) and X = cross(v_a, v_x), |X| <= 2V^2;
    A' is a nonzero integer unless p_x lies on a's line, and then the sign
    does not depend on lam at all (if X = 0 too, the three copies are
    collinear at every scale and VerificationError is raised before any
    count).  Copies of distinct originals coincide only if
    lam*|p_a - p_b| <= 2V.  So from L = 16PV + 8V^2 + 1 on, every
    orientation sign, and with them the crossing count and general position,
    equals its limit as lam grows.

    The search starts from a guess: the smallest k with lam*|A'| > |X| for
    every ordered pair with A' != 0, so that every such pair sign is at its
    limit (``_limit_exponent``, one O(n^2) pass over the input), clamped
    to k_stable, the first k with lam0 * 2**k >= L.  A passing guess is
    checked against guess - 1: if that fails, the guess is returned, and if
    it passes, the search bisects below it.  A failing guess starts a gallop
    over guess + 1, + 3, + 7, ..., clamped to k_stable; if k_stable fails,
    every larger scale fails the same way and VerificationError is raised at
    once, and otherwise the search bisects between the last failing and the
    first passing k.  Either way it returns the smallest passing k whenever
    passing is monotone in k.
    """
    pts = _points(S)
    n = len(pts)
    if not isinstance(M, HalvingMatching) or set(M.assignments) != set(range(n)):
        raise ValueError("matching does not cover the point set")
    dirs = []
    for v in range(n):
        dx, dy = M.assignments[v].direction
        dirs.append((int(dx), int(dy)))
    vmax = max(max(abs(dx), abs(dy)) for dx, dy in dirs)
    lam0 = 4 * n * vmax
    guess = _limit_exponent(pts, dirs, lam0)  # raises if some v is 0, so lam0 > 0
    pmax = max(max(abs(px), abs(py)) for px, py in pts)
    stable = 16 * pmax * vmax + 8 * vmax * vmax + 1
    k_stable = (-(-stable // lam0) - 1).bit_length()
    guess = k = min(guess, k_stable)
    base = count_crossings(S)
    predicted = predicted_double("rect", n, base)

    def probe(k):
        lam = lam0 << k
        new_pts = []
        for (px, py), (dx, dy) in zip(pts, dirs):
            new_pts.append((lam * px + dx, lam * py + dy))
            new_pts.append((lam * px - dx, lam * py - dy))
        S2 = PointSet(new_pts)
        try:
            return S2, count_crossings(S2)
        except DegenerateError:
            return S2, None

    retries = 0
    failed = -1
    found, c2 = probe(k)
    while c2 != predicted:
        retries += 1
        if k == k_stable:
            if c2 is None:
                raise VerificationError("doubled set is degenerate at every scale")
            raise VerificationError(
                f"doubled set has {c2} crossings at every scale from "
                f"lam = {lam0 << k}, predicted {predicted} (excess {c2 - predicted})"
            )
        failed, k = k, min(2 * k - guess + 1, k_stable)
        found, c2 = probe(k)
    while k - failed > 1:
        # a passing guess is checked against the one below it first
        mid = k - 1 if k == guess else (failed + k) // 2
        S2, c2 = probe(mid)
        if c2 == predicted:
            found, k = S2, mid
        else:
            failed = mid
            retries += 1
    return found, DoublingReport(n, base, 2 * n, predicted, predicted, lam0 << k, retries)


def double_signature(D, M):
    """The doubled signature of D under halving matching M, verified.

    Copies of vertex i are pushed apart along the pseudoline through i and
    its matched partner t(i).  Triples of three distinct originals inherit
    their sign; (i+, i-, x) is signed by x's side of that pseudoline; and
    when x is the partner itself, by the side its own copies move to, which
    is the orientation of (i, t(i), t(t(i))).  The result must be realizable
    and match the pseudolinear recurrence exactly; ``is_realizable`` leaves
    it marked realizable.
    """
    n = D.n
    if not isinstance(M, HalvingMatching) or set(M.assignments) != set(range(n)):
        raise ValueError("matching does not cover the signature")
    t = [slot_partner(D, M.assignments[v]) for v in range(n)]
    for v in range(n):
        if t[v] == v or t[t[v]] == v:
            raise ValueError("matching partners must not be mutual")
    base = count_crossings_sig(D)
    predicted = predicted_double("pseudo", n, base)
    N = 2 * n
    signs = D.signs()
    rank = D.rank
    sign = D.sign
    rows = []  # the signs of the triples a < b < c of copies, one string per a
    for a in range(N):
        oa = a >> 1
        row = []
        for b in range(a + 1, N):
            ob = b >> 1
            for c in range(b + 1, N):
                oc = c >> 1
                if oa != ob and ob != oc:
                    row.append(signs[rank(oa, ob, oc)])
                    continue
                # both copies of v, and copy xc of another vertex x
                v, xc = (oa, c) if oa == ob else (ob, a)
                x = xc >> 1
                if x != t[v]:
                    s = sign(v, t[v], x)
                else:
                    s = sign(v, t[v], t[x]) * (1 if xc & 1 else -1)
                row.append("+" if s > 0 else "-")
        rows.append("".join(row))
    out = Signature.from_signs(N, "".join(rows))
    if not is_realizable(out):
        raise VerificationError("doubled signature is not realizable")
    c2 = count_crossings_sig(out)
    if c2 != predicted:
        raise VerificationError(
            f"doubled signature has {c2} crossings, predicted {predicted}"
        )
    return out, DoublingReport(n, base, N, c2, predicted, 0, 0)


def rect_bound(n, cr):
    """Exact rectilinear-constant bound from an n-point count: the value
    (24*cr + 3n^3 - 7n^2 + (30/7)n) / n^4 as a reduced rational."""
    if n < 3:
        raise ValueError("need n >= 3")
    return _as_bound(
        Fraction(168 * cr + 21 * n**3 - 49 * n**2 + 30 * n, 7 * n**4), "rect"
    )


def pseudo_bound(n, cr):
    """Exact pseudolinear-constant bound; parity picks the formula.

    Even n gives rect_bound's value; odd n uses the (81/14)n correction term.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n % 2 == 0:
        return _as_bound(rect_bound(n, cr).value, "pseudo")
    return _as_bound(Fraction(336 * cr + 42 * n**3 - 98 * n**2 + 81 * n, 14 * n**4), "pseudo")


def harary_hill(n):
    """The conjectured minimum crossing number of K_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2)
    return p // 4
