"""Acceptance gate: one test per primary guarantee of the package.

Run with ``pytest -v`` to get one pass/fail line per criterion:

1. golden count of the bundled 2643-point drawing,
2. golden bound fractions for both drawing kinds,
3. fast counters equal brute-force oracles on >= 1000 random sets,
4. doubling recurrences verified by brute recount, both kinds,
5. the even-n bound identity between the two kinds,
6. halving lines pass independent side-count verification,
7. signatures stay consistent with the point sets they came from,
8. the local searches reach independently derived minima, and
9. a five-minute orchestrated run leaves a self-consistent registry.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from crossnum.doubling import (
    double_points,
    double_signature,
    predicted_double,
    pseudo_bound,
    rect_bound,
)
from crossnum.geometry import (
    CandidateBatch,
    PointSet,
    count_crossings,
    count_crossings_brute,
    evaluate_candidates,
    orient,
    removal_values,
)
from crossnum.halving import (
    NO_MATCHING,
    halving_direction,
    halving_lines,
    halving_matching,
)
from crossnum.heuristics import (
    SearchBudget,
    cell_walk,
    random_relocation,
    sig_flip_search,
)
from crossnum.io import load_points
from crossnum.pipeline import PipelineConfig, orchestrate
from crossnum.registry import Registry
from crossnum.signatures import (
    convex_signature,
    count_crossings_sig,
    count_crossings_sig_brute,
    delete_vertex,
    is_realizable,
    signature_of,
)

from conftest import convex_points, general_position, rand_general

FIXTURES = Path(__file__).parent / "fixtures"


def test_golden_count_k2643():
    # the bundled 2205-vertex signature payload is not shipped; that half of
    # the guarantee is discharged by test_signature_consistency below
    from importlib import resources

    S = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    assert S.n == 2643
    t0 = time.monotonic()
    got = count_crossings(S)
    elapsed = time.monotonic() - t0
    assert got == 771218714414
    assert elapsed <= 900.0, f"count took {elapsed:.1f}s"


def test_golden_bounds():
    b = rect_bound(2643, 771218714414)
    assert b.value == Fraction(43317371729896, 113858494707069)
    b = pseudo_bound(2205, 373382224051)
    assert b.value == Fraction(5995534434121, 15759524733750)


def test_oracle_equivalence():
    rng = random.Random(987)
    t0 = time.monotonic()
    for trial in range(1000):
        n = rng.randint(4, 12)
        lim = rng.choice((40, 10**4, 10**8))
        S = rand_general(rng, n, lim)
        cr = count_crossings(S)
        assert cr == count_crossings_brute(S), trial

        rv = removal_values(S)
        assert rv == [count_crossings(S.delete(v)) for v in range(n)], trial

        anchor = rng.randrange(n)
        fresh = (rng.randint(-lim, lim), rng.randint(-lim, lim))
        dup = S[(anchor + 1) % n]
        cands = (S[anchor], fresh, dup)
        got = evaluate_candidates(S, CandidateBatch(anchor, cands))
        for cand, res in zip(cands, got):
            moved = list(S)
            moved[anchor] = cand
            if len(set(moved)) < n or not general_position(moved):
                assert res is None, trial
            else:
                assert res == count_crossings(PointSet(tuple(moved))), trial
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"oracle suite took {elapsed:.1f}s"


def test_doubling_recurrence():
    S = PointSet(((0, 0), (1, 0), (0, 1)))
    assert count_crossings_brute(S) == 0
    M = halving_matching(S)
    assert M
    S6, rep = double_points(S, M)
    assert rep.output_crossings == predicted_double("rect", 3, 0) == 3
    assert count_crossings_brute(S6) == 3
    M6 = halving_matching(S6)
    assert M6
    S12, rep2 = double_points(S6, M6)
    assert rep2.output_crossings == predicted_double("rect", 6, 3) == 153
    assert count_crossings_brute(S12) == 153

    from crossnum.halving import halving_matching_sig

    D = convex_signature(3)
    assert count_crossings_sig_brute(D) == 0
    MD = halving_matching_sig(D)
    assert MD
    D6, repD = double_signature(D, MD)
    assert repD.output_crossings == predicted_double("pseudo", 3, 0) == 6
    assert count_crossings_sig_brute(D6) == 6
    assert is_realizable(D6)


def test_parity_identity():
    rng = random.Random(55)
    for _ in range(50):
        n = 2 * rng.randint(2, 1500)
        cr = rng.randrange(10**12)
        assert pseudo_bound(n, cr).value == rect_bound(n, cr).value


def _check_line_sides(S, line):
    # independent of the library's own checker: signed area against the
    # direction vector, strict side counts must balance
    a = S[line.anchor]
    dx, dy = line.direction
    tip = (a[0] + dx, a[1] + dy)
    through = {line.anchor} if line.partner is None else {line.anchor, line.partner}
    left = right = 0
    for v in range(S.n):
        if v in through:
            continue
        s = orient(a, tip, S[v])
        assert s != 0, "halving line passes through an extra point"
        if s > 0:
            left += 1
        else:
            right += 1
    assert left == right == (S.n - len(through)) // 2
    if line.partner is not None:
        pb = S[line.partner]
        assert orient(a, tip, pb) == 0  # partner really lies on the line


def test_halving_correctness():
    rng = random.Random(77)
    t0 = time.monotonic()
    for trial in range(110):
        n = rng.randint(3, 12)
        S = rand_general(rng, n)
        for line in halving_lines(S):
            _check_line_sides(S, line)
        if n % 2:
            for v in range(n):
                d = halving_direction(S, v)
                _check_line_sides(S, type(halving_lines(S)[0])(v, None, d))
            M = halving_matching(S)
            assert M, "odd n must always have a halving matching"
        else:
            M = halving_matching(S)
        if M:
            keys = set()
            for v, line in M.assignments.items():
                assert v == line.anchor or v == line.partner
                _check_line_sides(S, line)
                keys.add((line.anchor, line.partner, tuple(line.direction)))
            assert len(keys) == n  # injective on lines
    tri4 = PointSet(((0, 0), (9, 0), (0, 9), (3, 3)))
    assert halving_matching(tri4) is NO_MATCHING
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"halving suite took {elapsed:.1f}s"


def test_signature_consistency():
    rng = random.Random(321)
    for trial in range(500):
        n = rng.randint(3, 10)
        S = rand_general(rng, n)
        D = signature_of(S)
        assert count_crossings_sig(D) == count_crossings(S), trial
        assert is_realizable(D), trial
        if n > 3:
            v = rng.randrange(n)
            assert delete_vertex(D, v) == signature_of(S.delete(v)), trial


class _TargetReached(Exception):
    pass


def _reaches(search, drawing, target, seed, counter):
    def cb(step, cur, best):
        if best <= target:
            raise _TargetReached

    budget = SearchBudget(wall_time=60.0, rng_seed=seed)
    try:
        res = search(drawing, budget, progress=cb)
    except _TargetReached:
        return True
    return counter(res) <= target


def test_heuristic_attainment():
    minima = json.loads((FIXTURES / "relocation_minima.json").read_text())
    for n in range(5, 10):
        target = minima[str(n)]
        assert _reaches(
            random_relocation, convex_points(n), target, n, count_crossings
        ), f"relocation missed {target} for n={n}"
    assert _reaches(
        sig_flip_search, convex_signature(5), 1, 5, count_crossings_sig
    ), "flip search missed 1 crossing for n=5"

    # seed determinism and best-so-far monotonicity for all three searches
    S = convex_points(7)
    D = convex_signature(6)
    runs = [
        (random_relocation, S, tuple),
        (sig_flip_search, D, lambda x: x),
        (lambda s, b, progress: cell_walk(s, 0, b, progress=progress), S, tuple),
    ]
    for search, drawing, canon in runs:
        logs = []
        outs = []
        for _ in range(2):
            log = []
            outs.append(
                search(
                    drawing,
                    SearchBudget(max_steps=120, rng_seed=9),
                    progress=lambda s, c, b, log=log: log.append(b),
                )
            )
            logs.append(log)
        assert canon(outs[0]) == canon(outs[1])
        assert logs[0] == logs[1]
        assert all(b <= a for a, b in zip(logs[0], logs[0][1:]))


@pytest.mark.slow
def test_pipeline_integrity(tmp_path):
    cfg = PipelineConfig(
        kinds=("rect", "pseudo"),
        top_k=3,
        stall_window=20.0,
        shrink_target=3,
        shrink_tuples=(1, 2),
        worker_count=2,
        registry_path=str(tmp_path / "reg"),
        seed=0,
        run_time=300.0,
        max_n={"rect": 48, "pseudo": 24},
    )
    report = orchestrate(cfg)
    reg = Registry(tmp_path / "reg")
    for kind in ("rect", "pseudo"):
        ns = sorted(r.n for r in reg.records(kind))
        assert 3 in ns, f"{kind} lost its seed record"
        assert len(ns) >= 2, f"{kind} registry did not grow: {ns}"
    for d in report["doublings"]:
        assert d["output_crossings"] == d["predicted_crossings"], d
    assert reg.fsck() == []
    for kind, hist in report["bound_history"].items():
        vals = [Fraction(h[2]) for h in hist]
        assert all(b <= a for a, b in zip(vals, vals[1:])), (kind, vals)
        assert report["final_best"][kind] is not None
