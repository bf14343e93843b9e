"""Seeded inputs and the three workload cycles.

Each cycle drives crossnum only through public calls of geometry, signatures,
halving, doubling, heuristics, io and registry, in one thread, against a fresh
registry directory.  A cycle is deterministic given its inputs, so every cycle
of a run repeats the same work.  Sizes are scaled-down replays of the
pipeline's phases; NOTES.md gives the reasons for each.
"""

import os
import random
from dataclasses import dataclass, field
from time import perf_counter

from crossnum.doubling import VerificationError, double_points, double_signature, pseudo_bound, rect_bound
from crossnum.geometry import DegenerateError, PointSet, count_crossings
from crossnum.halving import halving_matching, halving_matching_sig
from crossnum.heuristics import SearchBudget, cell_walk, random_relocation, shrink, sig_flip_search
from crossnum.io import load_drawing, save_drawing
from crossnum.registry import Registry
from crossnum.signatures import Signature, count_crossings_sig, is_realizable, signature_of

# certify: one large rectilinear and one pseudolinear drawing per cycle.
CERTIFY_RECT_N = 500
CERTIFY_PSEUDO_N = 28
# search: relocation at n=96 on a k2643 subset and on the doubling chain,
# cell walks at n=24 each followed by relocation on the walk's output, and
# flip search at n=24 on the chain's signature and on a k2643 subset's.
SEARCH_N = 96
RELOCATE_STEPS = 6
WALKS = 16
WALK_N = 24
WALK_STEPS = 2
RELOCATE_AFTER_WALK_STEPS = 1
FLIP_N = 24
FLIP_STEPS = 300
# grow: the chain from the triangle to n=96, the attempt at 96 -> 192 that
# the pipeline makes under its default max_n, shrinks, and the pseudo chain.
CHAIN_N = 96
SHRINK_T1_FROM, SHRINK_T1_TO = 48, 3
SHRINK_T2_FROM, SHRINK_T2_TO = 24, 12
PSEUDO_DOUBLE_FROM = 12
GROW_FLIP_STEPS = 100
TOP_K = 3
BRUTE_MAX_N = 12

TRIANGLE = PointSet(((0, 0), (1, 0), (0, 1)))


def kind_of(drawing):
    return "pseudo" if isinstance(drawing, Signature) else "rect"


def coord_bits(S):
    return max(max(abs(x).bit_length(), abs(y).bit_length()) for x, y in S)


# -- inputs ---------------------------------------------------------------------


@dataclass
class Inputs:
    certify_rect_path: str
    certify_pseudo_path: str
    certify_rect_points: PointSet
    certify_pseudo_points: PointSet
    chain: dict
    relocate: list  # (label, drawing, crossings, rng_seed)
    walks: list  # (drawing, crossings, vertex, walk_seed, relocate_seed)
    flip: list  # (label, signature, crossings, rng_seed)
    grow_flip_seed: int
    save_s: float


def make_inputs(seed, golden_path, directory):
    """All workloads' inputs from the seed; the same seed gives the same inputs."""
    rng = random.Random(seed)
    golden = load_drawing(golden_path)

    def subset(n):
        idx = sorted(rng.sample(range(golden.n), n))
        return PointSet(tuple(golden[i] for i in idx))

    def rng_seed():
        return rng.getrandbits(64)

    rect = subset(CERTIFY_RECT_N)
    pseudo_pts = subset(CERTIFY_PSEUDO_N)
    rect_path = os.path.join(directory, "certify-rect.pts")
    pseudo_path = os.path.join(directory, "certify-pseudo.sig")
    start = perf_counter()
    save_drawing(rect, rect_path)
    save_drawing(signature_of(pseudo_pts), pseudo_path)
    save_s = perf_counter() - start

    chain = {TRIANGLE.n: TRIANGLE}
    S = TRIANGLE
    while S.n < CHAIN_N:
        S, _ = double_points(S, halving_matching(S))
        chain[S.n] = S
    search_pts = subset(SEARCH_N)
    relocate = [
        ("k2643", search_pts, count_crossings(search_pts), rng_seed()),
        ("chain", chain[SEARCH_N], count_crossings(chain[SEARCH_N]), rng_seed()),
    ]
    walks = []
    for _ in range(WALKS):
        W = subset(WALK_N)
        walks.append((W, count_crossings(W), rng.randrange(WALK_N), rng_seed(), rng_seed()))
    flip = []
    for label, D in (("chain", signature_of(chain[FLIP_N])), ("k2643", signature_of(subset(FLIP_N)))):
        flip.append((label, D, count_crossings_sig(D), rng_seed()))
    return Inputs(
        rect_path,
        pseudo_path,
        rect,
        pseudo_pts,
        chain,
        relocate,
        walks,
        flip,
        rng_seed(),
        save_s,
    )


@dataclass
class Outputs:
    """What one cycle hands to the checks after it."""

    registries: list = field(default_factory=list)  # registry directories
    certified: list = field(default_factory=list)  # (kind, registry, n, crossings, bound, fsck problems)
    realizable: bool = True
    improved: list = field(default_factory=list)  # (heuristic input, heuristic output)
    walked: list = field(default_factory=list)  # cell-walk outputs
    doubled: list = field(default_factory=list)  # (doubling input, doubling output)
    shrunk: list = field(default_factory=list)  # shrink outputs
    chain: dict = field(default_factory=dict)  # n -> the rebuilt rectilinear chain


# -- shared steps -----------------------------------------------------------------


def submit(rec, reg, drawing, provenance):
    """Submit a drawing and count the registry's verdict by reason."""
    rec.submitted.append(drawing)
    res = rec.call("registry.submit_drawing", reg.submit_drawing, drawing, provenance)
    if res.accepted:
        rec.count("registry.submit_drawing.accepted")
    elif res.reason == "not an improvement":
        rec.count("registry.submit_drawing.rejected_not_improvement")
    else:
        rec.count("registry.submit_drawing.rejected_other")
        rec.failed += 1
    return res


def submit_and_rank(rec, reg, drawing, provenance):
    """Submit, then read the top records, as the pipeline's bound snapshots do."""
    submit(rec, reg, drawing, provenance)
    rec.call("registry.best_records", reg.best_records, kind_of(drawing), TOP_K)


def open_registry(rec, path):
    return rec.call("registry.Registry", Registry, path)


# -- certify ----------------------------------------------------------------------


def certify(rec, inp, regdir, out):
    """The verify-and-register path at large n, for both kinds."""
    out.registries = [os.path.join(regdir, "rect"), os.path.join(regdir, "pseudo")]
    with rec.phase("rect"):
        reg = open_registry(rec, os.path.join(regdir, "rect"))
        S = rec.call("io.load_drawing", load_drawing, inp.certify_rect_path)
        rec.annotate(bytes=os.path.getsize(inp.certify_rect_path))
        cr = rec.call("geometry.count_crossings", count_crossings, S)
        bound = rec.call("doubling.rect_bound", rect_bound, S.n, cr)
        submit(rec, reg, S, "certify")
        problems = rec.call("registry.fsck", reg.fsck)
        rec.annotate(problems=len(problems))
    out.certified.append(("rect", reg, S.n, cr, bound, problems))
    with rec.phase("pseudo"):
        reg = open_registry(rec, os.path.join(regdir, "pseudo"))
        D = rec.call("io.load_drawing", load_drawing, inp.certify_pseudo_path)
        rec.annotate(bytes=os.path.getsize(inp.certify_pseudo_path))
        ok = rec.call("signatures.is_realizable", is_realizable, D)
        cr = rec.call("signatures.count_crossings_sig", count_crossings_sig, D)
        bound = rec.call("doubling.pseudo_bound", pseudo_bound, D.n, cr)
        submit(rec, reg, D, "certify")
        problems = rec.call("registry.fsck", reg.fsck)
        rec.annotate(problems=len(problems))
    out.certified.append(("pseudo", reg, D.n, cr, bound, problems))
    out.realizable = ok


# -- search -----------------------------------------------------------------------


def search(rec, inp, regdir, out):
    """The optimize phase: relocation, cell walks, flip search."""
    out.registries = [regdir]
    with rec.phase("rect"):
        reg = open_registry(rec, regdir)
        for label, S, cr, seed in inp.relocate:
            submit(rec, reg, S, f"input:{label}")
            R, _ = rec.heuristic(
                "heuristics.random_relocation",
                random_relocation,
                S,
                SearchBudget(max_steps=RELOCATE_STEPS, rng_seed=seed),
                start_count=cr,
            )
            out.improved.append((S, R))
            submit(rec, reg, R, f"relocate:{label}")
        for W, cr, v, walk_seed, seed in inp.walks:
            submit(rec, reg, W, "input:walk")
            C, walk = rec.heuristic(
                "heuristics.cell_walk",
                cell_walk,
                W,
                v,
                SearchBudget(max_steps=WALK_STEPS, rng_seed=walk_seed),
                start_count=cr,
            )
            out.improved.append((W, C))
            out.walked.append(C)
            submit(rec, reg, C, "cellwalk")
            R, _ = rec.heuristic(
                "heuristics.random_relocation",
                random_relocation,
                C,
                SearchBudget(max_steps=RELOCATE_AFTER_WALK_STEPS, rng_seed=seed),
                start_count=walk.best if walk else None,
            )
            out.improved.append((C, R))
            submit(rec, reg, R, "relocate:walked")
    with rec.phase("pseudo"):
        for label, D, cr, seed in inp.flip:
            submit(rec, reg, D, f"input:{label}")
            F, _ = rec.heuristic(
                "heuristics.sig_flip_search",
                sig_flip_search,
                D,
                SearchBudget(max_steps=FLIP_STEPS, rng_seed=seed),
                start_count=cr,
            )
            out.improved.append((D, F))
            submit(rec, reg, F, f"flip:{label}")


# -- grow -------------------------------------------------------------------------


def _double(rec, name, fn, drawing, matching):
    """One doubling; a verification failure is counted and gives (None, None)."""
    try:
        doubled, report = rec.call(name, fn, drawing, matching)
    except (DegenerateError, VerificationError):
        return None, None
    rec.annotate(retries=report.retries, scale_bits=report.scale_used.bit_length())
    return doubled, report


def _shrink(rec, reg, drawing, target, tuple_size, out):
    outs = []
    rec.call(f"heuristics.shrink.t{tuple_size}", shrink, drawing, target, tuple_size, emit=outs.append)
    rec.annotate(emitted=len(outs))
    for s in outs:
        submit_and_rank(rec, reg, s, f"shrink(tuple={tuple_size})")
    out.shrunk.extend(outs)


def grow(rec, inp, regdir, out):
    """The double phase: doubling chains, the 96 -> 192 attempt, shrinks."""
    out.registries = [regdir]
    with rec.phase("rect"):
        reg = open_registry(rec, regdir)
        S = TRIANGLE
        chain = {S.n: S}
        submit_and_rank(rec, reg, S, "seed(triangle)")
        while S.n <= CHAIN_N:
            M = rec.call("halving.halving_matching", halving_matching, S)
            if not M:
                rec.count("halving.no_matching")
                break
            doubled, _ = _double(rec, "doubling.double_points", double_points, S, M)
            if doubled is None:
                break
            out.doubled.append((S, doubled))
            S = doubled
            chain[S.n] = S
            submit_and_rank(rec, reg, S, f"double(n={S.n // 2})")
        _shrink(rec, reg, chain[SHRINK_T1_FROM], SHRINK_T1_TO, 1, out)
        _shrink(rec, reg, chain[SHRINK_T2_FROM], SHRINK_T2_TO, 2, out)
        out.chain = chain
    with rec.phase("pseudo"):
        D = rec.call("signatures.signature_of", signature_of, chain[PSEUDO_DOUBLE_FROM])
        submit_and_rank(rec, reg, D, "signature(chain)")
        M = rec.call("halving.halving_matching_sig", halving_matching_sig, D)
        if not M:
            rec.count("halving.no_matching")
            return
        D2, report = _double(rec, "doubling.double_signature", double_signature, D, M)
        if D2 is None:
            return
        out.doubled.append((D, D2))
        submit_and_rank(rec, reg, D2, f"double(n={D.n})")
        _shrink(rec, reg, D2, SHRINK_T1_TO, 1, out)
        _shrink(rec, reg, D2, SHRINK_T2_TO, 2, out)
        F, _ = rec.heuristic(
            "heuristics.sig_flip_search",
            sig_flip_search,
            D2,
            SearchBudget(max_steps=GROW_FLIP_STEPS, rng_seed=inp.grow_flip_seed),
            start_count=report.output_crossings,
        )
        out.improved.append((D2, F))
        submit_and_rank(rec, reg, F, "flip")


WORKLOADS = {"certify": certify, "search": search, "grow": grow}
