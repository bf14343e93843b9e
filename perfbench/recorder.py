"""Timing, counting and span recording around the benchmark's calls into crossnum.

A Recorder covers one workload cycle.  Untraced, it times the cycle's phases
and each call, samples the host's pace (pace.py) at each phase's start and
end and at call boundaries in between, and counts operations and their
outcomes, nothing more.  The pace samples are taken outside the timed
regions: the cycle and phase times leave them out.  Traced, it also keeps one
span per public call (name, start, end, parent span, run id) in memory, and
steppers keep per-step timestamps from the heuristics' public ``progress``
callbacks.  Nothing in crossnum is patched: every span is measured from
outside, so a span includes the library's own inner calls.
"""

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import pace


class Stepper:
    """A ``progress`` callback that keeps a timestamp and count per step."""

    def __init__(self, start_count):
        self.note = {"start_count": start_count, "stamps": [], "counts": []}
        self.best = start_count

    def __call__(self, step, count, best):
        self.note["stamps"].append(perf_counter())
        self.note["counts"].append(count)
        self.best = best


class Recorder:
    """Phase times, operation counts and (when traced) spans of one cycle."""

    def __init__(self, run_id, cycle, traced, ids):
        self.run_id = run_id
        self.cycle = cycle
        self.traced = traced
        self._ids = ids
        self.spans = []
        self._stack = []
        self._last = {}
        self.phase_s = {}
        self.calls = []  # (phase, name, seconds) of every call, in order
        self.wall_s = None
        self.paces = {}  # phase -> [pace, weight] of its pace samples, see pace.weigh
        self.paused = 0.0  # time spent sampling the pace
        self._phase = None
        self._last_pace = 0.0
        self._unpaced = 0.0  # time in pace.UNPACED calls since the last sample
        self.attempted = 0
        self.failed = 0
        self.outcomes = Counter()
        self.submitted = []  # every drawing the cycle submitted, for coordinate sizes

    def _open(self, name):
        span = {
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "cycle": self.cycle,
            "name": name,
            "start": perf_counter(),
        }
        self.spans.append(span)
        return span

    @contextmanager
    def _scope(self, name):
        span = self._open(name) if self.traced else None
        if span is not None:
            self._stack.append(span)
        try:
            yield
        finally:
            if span is not None:
                span["end"] = perf_counter()
                self._stack.pop()

    def _pace(self, phase):
        samples = self.paces.setdefault(phase, [])
        work = perf_counter() - self._last_pace - self._unpaced if samples else 0.0
        self.paused += pace.weigh(samples, work)
        self._last_pace = perf_counter()
        self._unpaced = 0.0

    def run(self, workload, *args):
        """Run one cycle of the workload and time it as a whole, pace samples left out."""
        start = perf_counter()
        with self._scope("cycle"):
            workload(self, *args)
        self.wall_s = perf_counter() - start - self.paused

    @contextmanager
    def phase(self, name):
        """Time a phase, with a pace sample at its start and end."""
        self._pace(name)
        start, paused = perf_counter(), self.paused
        self._phase = name
        try:
            with self._scope("phase." + name):
                yield
        finally:
            self._phase = None
        self.phase_s[name] = self.phase_s.get(name, 0.0) + perf_counter() - start - (self.paused - paused)
        self._pace(name)

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) as one attempted operation; a raise counts as failed.

        Inside a phase, the host's pace is sampled after the call once GAP_S
        has passed since the last sample.
        """
        self.attempted += 1
        span = self._open(name) if self.traced else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            if span is not None:
                span["error"] = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self.calls.append((self._phase, name, end - start))
            if name in pace.UNPACED:
                self._unpaced += end - start
            if span is not None:
                span["end"] = end
                self._last = span
            if self._phase is not None and end - self._last_pace >= pace.GAP_S:
                self._pace(self._phase)

    def annotate(self, **fields):
        """Attach fields to the span of the latest call (traced cycles only)."""
        if self.traced:
            self._last.update(fields)

    def heuristic(self, name, fn, *args, start_count=None, **kwargs):
        """Call a heuristic, passing a Stepper as its progress callback when traced.

        Returns (result, stepper); the stepper is None in untraced cycles.
        """
        st = Stepper(start_count) if self.traced else None
        out = self.call(name, fn, *args, progress=st, **kwargs)
        if st is not None:
            self.annotate(steps=st.note)
        return out, st

    def count(self, outcome):
        """Count a domain outcome, such as a registry verdict."""
        self.outcomes[outcome] += 1
