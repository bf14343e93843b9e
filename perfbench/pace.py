"""The host's pace: how fast this shared machine runs plain Python right now.

On a host shared with other tenants, the same crossnum call can take 1.5-1.9x
longer for tens of seconds at a time.  The benchmark therefore samples two
fixed kernels, written here and independent of crossnum, between its calls
and outside every timed region:

- signature_work copies the signature layer: small method calls on a
  bytearray with tuple unpacking, as in the 5-subset scans;
- geometry_work copies the geometry layer: big-integer orientation tests,
  tuple-keyed lookups and a keyed sort.

A phase's pace is the summed time of the kernels that resemble its work
(PHASE_KERNELS).  The phase's time divided by its pace, times the same sum on
the reference machine, is its time at the reference pace: in seconds, as on
that machine in its usual state.

Interpreted calls slow down more than big-integer arithmetic does, so one
kernel cannot serve every phase.  On a 2-core Xeon VM with Python 3.11.7,
over 5 minutes in 15 s windows, the quartile spread of window medians fell
from 0.10 to 0.034 for is_realizable divided by both kernels' time, and from
0.065 to 0.021 for count_crossings and to 0.031 for a random_relocation step
divided by geometry_work.  The pseudo phases also count, parse and write
drawings, so they are paced by both kernels; the rect phases by geometry_work.
"""

import random
import statistics
from itertools import combinations
from time import perf_counter

# Median time of each kernel on a 2-core Xeon VM, Python 3.11.7.
REFERENCE_S = {"signature": 0.0115, "geometry": 0.0060}
# The kernels whose summed time is each phase's pace.
PHASE_KERNELS = {"pseudo": ("signature", "geometry"), "rect": ("geometry",)}
# A sample runs each kernel this many times and keeps the medians.
REPEATS = 3
# Inside a phase, sample again at the first call boundary this long after the last sample.
GAP_S = 1.0
# Calls whose time does not follow the pace, and which are reported as measured.
# double_points spends its time multiplying integers of hundreds of bits in C:
# over five runs of grow in which the pace swung by 23%, the 96 -> 192 attempt
# moved by 5%, so scaling it would add the pace's swing instead of removing it.
UNPACED = frozenset({"doubling.double_points"})


class _Signs:
    """A random sign table on triples, read bit by bit like a signature."""

    def __init__(self, n, rng):
        self.n = n
        self._bits = bytearray(rng.getrandbits(8) for _ in range(n * n * n // 8 + 1))

    def sign(self, i, j, k):
        r = (i * self.n + j) * self.n + k
        return 1 if (self._bits[r >> 3] >> (r & 7)) & 1 else -1


_RNG = random.Random(12345)
_SIGNS = _Signs(14, _RNG)
_TRIPLES5 = tuple(combinations(range(5), 3))
_MASKS = frozenset(range(0, 1024, 3))
_POINTS = [(_RNG.getrandbits(320), _RNG.getrandbits(320)) for _ in range(48)]
_KEYS = [tuple(sorted(_RNG.sample(range(40), 5))) for _ in range(4000)]
_TABLE = {k: i for i, k in enumerate(_KEYS[::2])}


def signature_work():
    """Sign masks of every 5-subset of a random sign table, checked against a set."""
    sign = _SIGNS.sign
    acc = 0
    for sub in combinations(range(_SIGNS.n), 5):
        m = 0
        for r, (a, b, c) in enumerate(_TRIPLES5):
            if sign(sub[a], sub[b], sub[c]) > 0:
                m |= 1 << r
        acc += m in _MASKS
    return acc


def geometry_work():
    """Orientation tests on 320-bit points, tuple-keyed lookups and a keyed sort."""
    acc = 0
    pts = _POINTS
    for i in range(40):
        ax, ay = pts[i]
        for j in range(i + 1, 44):
            bx, by = pts[j]
            cx, cy = pts[j + 4]
            acc += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
    seen = set()
    for k in _KEYS:
        v = _TABLE.get(k)
        if v is not None:
            seen.add(k[1:])
            acc += v & 1
    order = sorted(range(len(_KEYS)), key=_KEYS.__getitem__)
    return acc + order[0] + len(seen)


KERNELS = {"signature": signature_work, "geometry": geometry_work}


def sample():
    """Each kernel's time now (median of REPEATS runs), and the time the sample took."""
    start = perf_counter()
    times = {kind: [] for kind in KERNELS}
    for _ in range(REPEATS):
        for kind, work in KERNELS.items():
            t = perf_counter()
            work()
            times[kind].append(perf_counter() - t)
    return {kind: statistics.median(ts) for kind, ts in times.items()}, perf_counter() - start


def weigh(samples, seconds):
    """Add work time to a list of [pace, weight] samples: half of it to the last
    sample before the work and half to a new sample taken after it.
    """
    if samples:
        samples[-1][1] += seconds / 2
    p, spent = sample()
    samples.append([p, seconds / 2])
    return spent


def relative(samples, phase):
    """A phase's pace over the work the samples surround, as a multiple of the reference.

    It is the samples' mean, weighted by that work's time, of the phase's
    kernels' summed time, divided by that sum on the reference machine.
    """
    kernels = PHASE_KERNELS[phase]
    paces = [sum(p[k] for k in kernels) for p, _ in samples]
    total = sum(w for _, w in samples)
    mean = sum(x * w for x, (_, w) in zip(paces, samples)) / total if total else statistics.median(paces)
    return mean / sum(REFERENCE_S[k] for k in kernels)


def at_reference(seconds, samples, phase):
    """A time measured while the [pace, weight] samples were taken, scaled to the phase's reference pace."""
    return seconds / relative(samples, phase)
