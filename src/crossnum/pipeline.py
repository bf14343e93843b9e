"""Scheduler tying the heuristics, doubling, and registry into one loop.

One cycle searches the records with the best bounds and submits what it
finds.  When a kind's best bound has not moved for ``stall_window``
seconds, the best record whose double is not already stored at no more than
the predicted crossings is doubled and shrunk back down, every size
submitted, and the double and a sample of its shrinks are searched with
budgets capped at ``limited_budget``.  Both phases search through
``_Run._search`` and submit every output that differs from its input: the
registry alone judges improvement.  Each lane is seeded from the global
seed, so its outputs are reproducible, but a run's submissions depend on
machine speed through the wall-clock ``stall_window`` and ``run_time``.
All durable state lives in the registry, so an interrupted run resumes for
free.
"""

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from hashlib import blake2b
from math import inf

from .doubling import VerificationError, double_points, double_signature, predicted_double
from .geometry import PointSet
from .halving import halving_matching, halving_matching_sig
from .heuristics import SearchBudget, cell_walk, random_relocation, shrink, sig_flip_search
from .io import ParseError, load_drawing
from .registry import Registry
from .signatures import convex_signature

TRIANGLE = PointSet(((0, 0), (1, 0), (0, 1)))

_DEFAULT_BUDGETS = {"relocate": 300, "cellwalk": 60, "flip": 300}
_DEFAULT_MAX_N = {"rect": 192, "pseudo": 28}


def _over_defaults(name, given, defaults):
    """The defaults updated with given; ValueError when given names a key the
    defaults lack or holds a negative value.  name labels the errors."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    if any(v < 0 for v in given.values()):
        raise ValueError(f"{name} values must be non-negative")
    return {**defaults, **given}


@dataclass
class PipelineConfig:
    """Knobs of one orchestrate run; mirrors the JSON config file exactly.

    ``worker_count`` is the number of seeded search lanes per record and
    cycle; the lanes run one after another in the calling thread.
    ``heuristic_budgets`` and ``max_n`` override the defaults only for the
    keys they name.
    """

    kinds: tuple = ("rect", "pseudo")
    top_k: int = 3
    heuristic_budgets: dict = field(default_factory=dict)
    limited_budget: int = 100
    stall_window: float = 600.0
    shrink_target: int = 3
    shrink_tuples: tuple = (1,)
    worker_count: int = 2
    registry_path: str = "registry"
    seed: int = 0
    run_time: float = 300.0
    max_n: dict = field(default_factory=dict)

    def __post_init__(self):
        self.kinds = tuple(self.kinds)
        self.shrink_tuples = tuple(self.shrink_tuples)
        if not self.kinds or any(k not in ("rect", "pseudo") for k in self.kinds):
            raise ValueError("kinds must be a non-empty subset of rect/pseudo")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.heuristic_budgets = _over_defaults(
            "heuristic_budgets", self.heuristic_budgets, _DEFAULT_BUDGETS
        )
        self.max_n = _over_defaults("max_n", self.max_n, _DEFAULT_MAX_N)
        if self.limited_budget < 0 or self.stall_window <= 0 or self.run_time <= 0:
            raise ValueError("budgets and windows must be positive")
        if self.shrink_target < 3:
            raise ValueError("shrink_target must be at least 3")
        if any(t not in (1, 2, 3) for t in self.shrink_tuples):
            raise ValueError("shrink tuple sizes must be 1, 2 or 3")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")

    @classmethod
    def from_dict(cls, data):
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class _OutOfTime(Exception):
    """Leaves a shrink from its emit callback once the run is out of time."""


# What a bad record raises while it is loaded, doubled or searched: a
# VerificationError, or a ValueError, which ParseError, DegenerateError and
# the heuristics' rejections of their inputs all are.  Any other error is a
# fault of the program and ends the run.
_RECORD_ERRORS = (ValueError, VerificationError)


def _load(rec):
    """The record's drawing.  An unreadable payload file raises ParseError, as
    ``Registry.submit`` words it, so the record is set aside like a bad one."""
    try:
        return load_drawing(rec.payload_path)
    except OSError as exc:
        raise ParseError(f"payload unreadable: {exc}") from exc


def _lane_seed(*parts):
    """A stable 64-bit seed for one (record, cycle, lane, heuristic) slot."""
    digest = blake2b(":".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class _Run:
    def __init__(self, cfg):
        self.cfg = cfg
        self.registry = Registry(cfg.registry_path)
        self.t0 = time.monotonic()
        self.no_matching = set()  # (kind, n, crossings) of records without a halving matching
        self.failed = set()  # (kind, n, crossings) of records set aside after an error
        self.report = {
            "cycles": 0,
            "accepted": [],
            "doublings": [],
            "no_matching": [],
            "skipped_too_large": [],
            "failed_records": [],
            "bound_history": {k: [] for k in cfg.kinds},
            "log": [],
            "final_best": {},
            "seconds": 0.0,
            "interrupted": False,
        }

    def elapsed(self):
        return time.monotonic() - self.t0

    def out_of_time(self):
        return self.elapsed() >= self.cfg.run_time

    def log(self, msg):
        self.report["log"].append(f"[t+{self.elapsed():.1f}s] {msg}")

    def set_aside(self, kind, rec, exc):
        """Pass over the record for the rest of the run, after it raised exc.
        A record that later replaces it at the same n is not passed over."""
        self.failed.add((kind, rec.n, rec.crossings))
        self.report["failed_records"].append(
            {"kind": kind, "n": rec.n, "crossings": rec.crossings, "error": f"{type(exc).__name__}: {exc}"}
        )
        self.log(f"{kind}: n={rec.n} failed: {exc}; set aside for the rest of the run")

    def submit(self, drawing, provenance):
        res = self.registry.submit_drawing(drawing, provenance)
        if res:
            kind = drawing.kind
            rec = self.registry.get(kind, drawing.n)
            self.report["accepted"].append(
                {
                    "kind": kind,
                    "n": rec.n,
                    "crossings": rec.crossings,
                    "bound": str(rec.bound),
                    "provenance": provenance,
                }
            )
            self.log(f"{kind}: accepted n={rec.n} crossings={rec.crossings} via {provenance}")
        return res

    def _search(self, kind, drawing, budgets, *seed_parts):
        """The outputs of the kind's heuristics on drawing that differ from it,
        labelled by heuristic and seed, ``_lane_seed(*seed_parts, name)``.  A
        zero budget runs nothing, and so does a three-point rect drawing."""
        outs = []
        for name in ("relocate", "cellwalk") if kind == "rect" else ("flip",):
            if not budgets[name] or (kind == "rect" and drawing.n < 4):
                continue
            seed = _lane_seed(*seed_parts, name)
            budget = SearchBudget(max_steps=budgets[name], rng_seed=seed)
            if name == "relocate":
                out, label = random_relocation(drawing, budget), f"relocate(seed={seed})"
            elif name == "cellwalk":
                v = random.Random(seed).randrange(drawing.n)
                out, label = cell_walk(drawing, v, budget), f"cellwalk(seed={seed},v={v})"
            else:
                out, label = sig_flip_search(drawing, budget), f"flip(seed={seed})"
            if out != drawing:
                outs.append((out, label))
        return outs

    # -- optimize phase -------------------------------------------------------

    def optimize_phase(self, cycle):
        # every lane searches from the records as they stood at the cycle's start
        found = []
        for kind in self.cfg.kinds:
            recs = self.registry.best_records(kind)
            recs = [r for r in recs if (kind, r.n, r.crossings) not in self.failed]
            for rec in recs[: self.cfg.top_k]:
                try:
                    drawing = _load(rec)
                    for lane in range(self.cfg.worker_count):
                        parts = (self.cfg.seed, kind, rec.n, cycle, lane)
                        outs = self._search(kind, drawing, self.cfg.heuristic_budgets, *parts)
                        found += [(out, f"{label} from n={rec.n}") for out, label in outs]
                except _RECORD_ERRORS as exc:
                    self.set_aside(kind, rec, exc)
        for drawing, provenance in found:
            self.submit(drawing, provenance)

    # -- doubling phase -------------------------------------------------------

    def _shrink(self, doubled, tup, chain):
        """The shrink outputs of doubled at tuple size tup, each submitted as
        it is produced; the shrink stops at the first output that finds the
        run out of time."""
        outs = []

        def emit(out):
            self.submit(out, f"{chain}->shrink(tuple={tup},n={out.n})")
            outs.append(out)
            if self.out_of_time():
                raise _OutOfTime

        try:
            shrink(doubled, self.cfg.shrink_target, tup, emit=emit)
        except _OutOfTime:
            pass
        return outs

    def double_phase(self, kind):
        """Double the best record whose double can improve the registry;
        shrink and search its outputs.  Only the first top_k records report
        a skip for size or a missing matching, and a record found without a
        matching is passed over for the rest of the run.  A record that
        raises one of the errors a bad record raises is set aside, and the
        next one is tried.  The clock is read before each shrink tuple size
        and search and after each shrink output, so the phase ends within
        one shrink step or search of the deadline."""
        recs = self.registry.best_records(kind)
        stored = {r.n: r.crossings for r in recs}
        for i, rec in enumerate(recs):
            reported = i < self.cfg.top_k
            if 2 * rec.n > self.cfg.max_n[kind]:
                if reported:
                    self.report["skipped_too_large"].append({"kind": kind, "n": rec.n})
                    self.log(f"{kind}: n={rec.n} skipped (doubling exceeds max_n)")
                continue
            if stored.get(2 * rec.n, inf) <= predicted_double(kind, rec.n, rec.crossings):
                continue
            key = (kind, rec.n, rec.crossings)
            if key in self.no_matching or key in self.failed:
                continue
            try:
                if self._double_record(kind, rec, reported):
                    return True
            except _RECORD_ERRORS as exc:
                self.set_aside(kind, rec, exc)
        return False

    def _double_record(self, kind, rec, reported):
        """Double one record, submit the double and its shrinks, and search
        them; False when the record has no halving matching."""
        drawing = _load(rec)
        matching = halving_matching(drawing) if kind == "rect" else halving_matching_sig(drawing)
        if not matching:
            self.no_matching.add((kind, rec.n, rec.crossings))
            if reported:
                self.report["no_matching"].append({"kind": kind, "n": rec.n})
                self.log(f"{kind}: n={rec.n} has no halving matching, trying next-best")
            return False
        if kind == "rect":
            doubled, dreport = double_points(drawing, matching)
        else:
            doubled, dreport = double_signature(drawing, matching)
        self.report["doublings"].append({"kind": kind, **asdict(dreport)})
        self.log(
            f"{kind}: doubled n={rec.n} -> n={doubled.n} "
            f"crossings={dreport.output_crossings} (= predicted)"
        )
        chain = f"double(n={rec.n})"
        self.submit(doubled, chain)
        subdrawings = [doubled]
        if doubled.n > self.cfg.shrink_target:
            for tup in self.cfg.shrink_tuples:
                if self.out_of_time():
                    break
                subdrawings.extend(_spaced(self._shrink(doubled, tup, chain), 5))
        cap = self.cfg.limited_budget
        limited = {name: min(steps, cap) for name, steps in self.cfg.heuristic_budgets.items()}
        limited["cellwalk"] = 0
        for sub in subdrawings:
            if self.out_of_time():
                break
            parts = (self.cfg.seed, kind, sub.n, "limited", chain)
            for out, label in self._search(kind, sub, limited, *parts):
                self.submit(out, f"{chain}->{label}")
        return True

    # -- main loop --------------------------------------------------------------

    def seed_registry(self):
        for kind in self.cfg.kinds:
            if not self.registry.records(kind):
                seeded = TRIANGLE if kind == "rect" else convex_signature(3)
                self.submit(seeded, "seed(triangle)")

    def snapshot_bounds(self):
        out = {}
        for kind in self.cfg.kinds:
            try:
                n, bound = self.registry.best_bound(kind)
            except LookupError:
                continue
            out[kind] = (n, bound)
            hist = self.report["bound_history"][kind]
            entry = [round(self.elapsed(), 3), n, str(bound)]
            if not hist or hist[-1][1:] != entry[1:]:
                hist.append(entry)
        return out

    def run(self):
        cfg = self.cfg
        self.seed_registry()
        best = self.snapshot_bounds()
        last_change = {k: time.monotonic() for k in cfg.kinds}
        cycle = 0
        try:
            while not self.out_of_time():
                self.optimize_phase(cycle)
                now_best = self.snapshot_bounds()
                for kind in cfg.kinds:
                    if kind in now_best and (
                        kind not in best or now_best[kind][1].value < best[kind][1].value
                    ):
                        last_change[kind] = time.monotonic()
                best = now_best
                for kind in cfg.kinds:
                    if self.out_of_time():
                        break
                    if time.monotonic() - last_change[kind] >= cfg.stall_window:
                        self.log(f"{kind}: best bound stalled, doubling")
                        self.double_phase(kind)
                        best = self.snapshot_bounds()
                        last_change[kind] = time.monotonic()
                cycle += 1
        except KeyboardInterrupt:
            self.report["interrupted"] = True
            self.log("interrupted, finishing with a consistent registry")
        self.report["cycles"] = cycle
        self.snapshot_bounds()
        for kind in cfg.kinds:
            try:
                n, bound = self.registry.best_bound(kind)
                self.report["final_best"][kind] = [n, str(bound)]
            except LookupError:
                self.report["final_best"][kind] = None
        self.report["seconds"] = round(self.elapsed(), 3)
        return self.report


def _spaced(items, k):
    """Up to k evenly spaced items, always keeping the last."""
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    picks = sorted({min(len(items) - 1, int(i * step)) for i in range(1, k)} | {len(items) - 1})
    return [items[i] for i in picks]


def orchestrate(cfg):
    """Run the full pipeline per the config; returns the run report."""
    return _Run(cfg).run()
