"""Correctness checks on a cycle's outputs, run outside the timed cycle.

Every cycle gets the cheap checks: the certified counts against the stored
records, the reached bounds recomputed from the stored records, and the same
registry contents and operation counts as the run's first cycle.  The first
cycle also gets the costly ones: fsck and an independent recount of every
stored record, the input identities, every doubling against its prediction,
and the brute-force counters on every small output.
"""

from crossnum.doubling import predicted_double, pseudo_bound, rect_bound
from crossnum.geometry import count_crossings, count_crossings_brute, removal_values
from crossnum.io import load_drawing
from crossnum.registry import Registry
from crossnum.signatures import Signature, count_crossings_sig, count_crossings_sig_brute

from workloads import BRUTE_MAX_N, kind_of

BOUND = {"rect": rect_bound, "pseudo": pseudo_bound}


class CheckFailed(Exception):
    """A benchmark output disagreed with its independent check."""


def crossings(drawing):
    if isinstance(drawing, Signature):
        return count_crossings_sig(drawing)
    return count_crossings(drawing)


def brute_crossings(drawing):
    if isinstance(drawing, Signature):
        return count_crossings_sig_brute(drawing)
    return count_crossings_brute(drawing)


class Checker:
    """Compares outputs with expectations; ``skew`` shifts every expected count.

    A nonzero skew is the self-test of the checks: every run given one must
    fail.
    """

    def __init__(self, skew=0):
        self.skew = skew
        self.first = None

    def equal(self, actual, expected, what):
        if actual != expected + self.skew:
            raise CheckFailed(f"{what}: got {actual}, expected {expected + self.skew}")

    def require(self, ok, what):
        if not ok:
            raise CheckFailed(what)

    def cycle(self, workload, inp, out, rec):
        """Check one cycle; returns its reached bounds {kind: Fraction}."""
        registries = [Registry(path) for path in out.registries]
        records = [r for reg in registries for r in reg.records()]
        if workload == "certify":
            self._certified(out)
        bounds = {}
        for kind in ("rect", "pseudo"):
            recs = [r for r in records if r.kind == kind]
            self.require(recs, f"no stored {kind} record")
            for r in recs:
                self.require(BOUND[kind](r.n, r.crossings) == r.bound, f"{kind}/n{r.n}: stored bound")
            bounds[kind] = min(r.bound.value for r in recs)
        state = (
            sorted((r.kind, r.n, r.crossings) for r in records),
            rec.attempted,
            rec.failed,
            sorted(rec.outcomes.items()),
        )
        if self.first is None:
            self.first = state
            if workload != "certify":
                for reg in registries:
                    problems = reg.fsck()
                    self.require(problems == [], f"fsck of {reg.path}: {problems}")
            for r in records:
                self._recount(r)
            getattr(self, "_" + workload)(inp, out)
        else:
            self.require(state == self.first, "cycle differs from the run's first cycle")
        return bounds

    def _recount(self, r):
        try:
            drawing = load_drawing(r.payload_path)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"stored {r.kind}/n{r.n} unreadable: {exc}") from None
        self.equal(crossings(drawing), r.crossings, f"recount of stored {r.kind}/n{r.n}")
        if drawing.n <= BRUTE_MAX_N:
            self.equal(brute_crossings(drawing), r.crossings, f"brute count of stored {r.kind}/n{r.n}")

    def _certified(self, out):
        for kind, reg, n, cr, bound, problems in out.certified:
            self.require(problems == [], f"certify {kind}: fsck problems {problems}")
            stored = reg.get(kind, n)
            self.require(stored is not None, f"certify {kind}: no stored record")
            self.equal(stored.crossings, cr, f"certify {kind}: stored count")
            self.require(stored.bound == bound, f"certify {kind}: stored bound")
        self.require(out.realizable, "certify pseudo: input reported unrealizable")

    def _certify(self, inp, out):
        (_, _, n, rect_cr, _, _), (_, _, _, pseudo_cr, _, _) = out.certified
        self.equal(sum(removal_values(inp.certify_rect_points)), (n - 4) * rect_cr, "removal-values identity")
        self.equal(count_crossings(inp.certify_pseudo_points), pseudo_cr, "signature count vs point count")

    def _search(self, inp, out):
        for before, after in out.improved:
            self.require(after.n == before.n, "heuristic changed the vertex count")
            self.require(crossings(after) <= crossings(before), "heuristic output is worse than its input")

    def _grow(self, inp, out):
        for before, after in out.doubled:
            kind = kind_of(before)
            self.equal(crossings(after), predicted_double(kind, before.n, crossings(before)), f"double {kind} n={before.n}")
        for n, S in out.chain.items():
            self.require(n not in inp.chain or tuple(S) == tuple(inp.chain[n]), f"chain n={n} not reproducible")
        for s in out.shrunk:
            if s.n <= BRUTE_MAX_N:
                self.equal(brute_crossings(s), crossings(s), f"shrink {kind_of(s)} n={s.n} brute count")
        self._search(inp, out)
