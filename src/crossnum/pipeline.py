"""Scheduler tying the heuristics, doubling, and registry into one loop.

One cycle optimizes the records with the best bounds, submits improvements,
and — when a kind's best bound has not moved for ``stall_window`` seconds —
doubles the best doubleable drawing, shrinks it back down submitting every
intermediate cardinality, locally optimizes the doubled set and a sample of
the subdrawings with small budgets, and starts over.  Each record gets
``worker_count`` lanes per cycle, run one after another and each seeded from
the global seed, so a run's submissions are reproducible; all durable state
lives in the registry, so an interrupted run resumes for free.
"""

import json
import random
import time
from dataclasses import dataclass, field, fields
from hashlib import blake2b

from .doubling import VerificationError, double_points, double_signature
from .geometry import DegenerateError, PointSet
from .halving import halving_matching, halving_matching_sig
from .heuristics import SearchBudget, cell_walk, random_relocation, shrink, sig_flip_search
from .io import load_drawing
from .registry import Registry, count_drawing
from .signatures import Signature, convex_signature

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


def _lane_seed(*parts):
    """A stable 64-bit seed for one (record, cycle, lane, heuristic) slot."""
    digest = blake2b(":".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class _Run:
    def __init__(self, cfg):
        self.cfg = cfg
        self.registry = Registry(cfg.registry_path)
        self.t0 = time.monotonic()
        self.report = {
            "cycles": 0,
            "accepted": [],
            "doublings": [],
            "no_matching": [],
            "skipped_too_large": [],
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

    def submit(self, drawing, provenance):
        res = self.registry.submit_drawing(drawing, provenance)
        if res:
            kind = "pseudo" if isinstance(drawing, Signature) else "rect"
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

    # -- optimize phase -------------------------------------------------------

    def _tasks(self, cycle):
        tasks = []
        for kind in self.cfg.kinds:
            for rec in self.registry.best_records(kind, self.cfg.top_k):
                for lane in range(self.cfg.worker_count):
                    tasks.append((kind, rec, lane))
        return tasks

    def _run_task(self, cycle, kind, rec, lane, budgets=None):
        """Run every heuristic of the kind on one record snapshot."""
        budgets = budgets or self.cfg.heuristic_budgets
        drawing = load_drawing(rec.payload_path)
        results = []
        if kind == "rect":
            seed = _lane_seed(self.cfg.seed, kind, rec.n, cycle, lane, "relocate")
            out = random_relocation(drawing, SearchBudget(max_steps=budgets["relocate"], rng_seed=seed))
            if tuple(out) != tuple(drawing):
                results.append((out, f"relocate(seed={seed}) from n={rec.n}"))
            if drawing.n >= 4 and budgets["cellwalk"]:
                seed = _lane_seed(self.cfg.seed, kind, rec.n, cycle, lane, "cellwalk")
                v = random.Random(seed).randrange(drawing.n)
                out = cell_walk(drawing, v, SearchBudget(max_steps=budgets["cellwalk"], rng_seed=seed))
                if tuple(out) != tuple(drawing):
                    results.append((out, f"cellwalk(seed={seed},v={v}) from n={rec.n}"))
        else:
            seed = _lane_seed(self.cfg.seed, kind, rec.n, cycle, lane, "flip")
            out = sig_flip_search(drawing, SearchBudget(max_steps=budgets["flip"], rng_seed=seed))
            if out != drawing:
                results.append((out, f"flip(seed={seed}) from n={rec.n}"))
        return results

    def optimize_phase(self, cycle):
        # every task searches from the records as they stood at the cycle's start
        batches = [self._run_task(cycle, *t) for t in self._tasks(cycle)]
        for batch in batches:
            for drawing, provenance in batch:
                self.submit(drawing, provenance)

    # -- doubling phase -------------------------------------------------------

    def double_phase(self, kind):
        """Double the best viable record; shrink and re-optimize its outputs."""
        for rec in self.registry.best_records(kind, self.cfg.top_k):
            if 2 * rec.n > self.cfg.max_n[kind]:
                self.report["skipped_too_large"].append({"kind": kind, "n": rec.n})
                self.log(f"{kind}: n={rec.n} skipped (doubling exceeds max_n)")
                continue
            drawing = load_drawing(rec.payload_path)
            try:
                matching = halving_matching(drawing) if kind == "rect" else halving_matching_sig(drawing)
                if not matching:
                    self.report["no_matching"].append({"kind": kind, "n": rec.n})
                    self.log(f"{kind}: n={rec.n} has no halving matching, trying next-best")
                    continue
                if kind == "rect":
                    doubled, dreport = double_points(drawing, matching)
                else:
                    doubled, dreport = double_signature(drawing, matching)
            except (DegenerateError, VerificationError) as exc:
                self.log(f"{kind}: doubling n={rec.n} failed: {exc}")
                continue
            self.report["doublings"].append(
                {
                    "kind": kind,
                    "input_n": dreport.input_n,
                    "input_crossings": dreport.input_crossings,
                    "output_n": dreport.output_n,
                    "output_crossings": dreport.output_crossings,
                    "predicted_crossings": dreport.predicted_crossings,
                    "scale_used": dreport.scale_used,
                    "retries": dreport.retries,
                }
            )
            self.log(
                f"{kind}: doubled n={rec.n} -> n={doubled.n} "
                f"crossings={dreport.output_crossings} (= predicted)"
            )
            chain = f"double(n={rec.n})"
            self.submit(doubled, chain)
            subdrawings = [doubled]
            if doubled.n > self.cfg.shrink_target:
                for tup in self.cfg.shrink_tuples:
                    outs = []
                    shrink(doubled, self.cfg.shrink_target, tup, emit=outs.append)
                    for out in outs:
                        self.submit(out, f"{chain}->shrink(tuple={tup},n={out.n})")
                    subdrawings.extend(_spaced(outs, 5))
            for sub in subdrawings:
                if self.out_of_time():
                    break
                self.limited_optimize(kind, sub, chain)
            return True
        return False

    def limited_optimize(self, kind, drawing, chain):
        budgets = {name: min(steps, self.cfg.limited_budget) for name, steps in self.cfg.heuristic_budgets.items()}
        seed = _lane_seed(self.cfg.seed, kind, drawing.n, "limited", chain)
        if kind == "rect":
            if drawing.n < 4:
                return
            out = random_relocation(drawing, SearchBudget(max_steps=budgets["relocate"], rng_seed=seed))
            prov = f"{chain}->relocate(seed={seed})"
        else:
            out = sig_flip_search(drawing, SearchBudget(max_steps=budgets["flip"], rng_seed=seed))
            prov = f"{chain}->flip(seed={seed})"
        if count_drawing(out) < count_drawing(drawing):
            self.submit(out, prov)

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
