"""crossnum benchmark: the certify, search and grow workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify|search|grow --seed N --seconds S --trace 0|1

Set-up builds the seeded inputs several times and reports the median.  The
run then repeats the workload's cycle, each cycle identical and against a
fresh registry, until the next cycle would end after ``--seconds``; it checks
every cycle's outputs outside the timed region.  Every end-to-end time is
typical of the cycles (see reference_median) and given at the reference pace
of pace.py: scaled by the host's pace, sampled around and between the timed
calls, so that other tenants of a shared host move it less.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics.  With ``--trace 1`` cycles alternate between untraced and traced,
the per-layer metrics come from the traced cycles' spans, and the spans are
written to ``.perfbench/traces/``.  ``--tamper payload|count`` corrupts a
stored payload or every expected count, and such a run must fail; selftest.py
checks that.  Exit codes: 0 ok, 1 a correctness check failed, 2 the crossnum
sources or the golden drawing are missing.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(SRC, "crossnum", "data", "k2643.txt")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MAX_MEASURE_S = 150


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("certify", "search", "grow"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tamper", choices=("payload", "count"))
    return p.parse_args()


def fail_setup(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import crossnum from this checkout's sources, and nowhere else."""
    if not (os.path.isdir(os.path.join(SRC, "crossnum")) and os.path.isfile(GOLDEN)):
        fail_setup(f"crossnum sources or {os.path.relpath(GOLDEN, ROOT)} not found under {ROOT}")
    sys.path.insert(0, SRC)
    import crossnum

    if not os.path.abspath(crossnum.__file__).startswith(SRC + os.sep):
        fail_setup(f"crossnum imported from {crossnum.__file__}, not from {SRC}")


def tamper_payload(out):
    """Drop the last line of one stored payload, as a corrupted registry would."""
    for root in out.registries:
        for kind in ("rect", "pseudo"):
            names = sorted(os.listdir(os.path.join(root, kind)))
            if names:
                path = os.path.join(root, kind, names[-1])
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines(keepends=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(lines[:-1])
                return
    raise RuntimeError("no stored payload to tamper with")


def measure(args, inputs, checker, run_id, workdir):
    """Run cycles until their summed wall time would pass args.seconds.

    Checks run between cycles and do not count toward the measured time.
    """
    from recorder import Recorder
    from workloads import WORKLOADS, Outputs

    workload = WORKLOADS[args.workload]
    ids = itertools.count(1)
    minimum = 2 if args.trace else 1
    cycles = []
    measured = 0.0
    while True:
        k = len(cycles)
        gc.collect()  # every cycle starts from the same heap
        rec = Recorder(run_id, k, args.trace == 1 and k % 2 == 1, ids)
        regdir = os.path.join(workdir, f"cycle{k}")
        out = Outputs()
        rec.run(workload, inputs, regdir, out)
        if args.tamper == "payload" and k == 0:
            tamper_payload(out)
        rec.bounds = checker.cycle(args.workload, inputs, out, rec)
        if rec.traced:
            rec.layer = analyse(rec, out)
        shutil.rmtree(regdir)
        rec.submitted = []  # the drawings are checked; keep the heap from growing
        cycles.append(rec)
        measured += rec.wall_s + rec.paused
        next_wall = statistics.median(c.wall_s + c.paused for c in cycles)
        if k + 1 >= minimum and (measured + next_wall > args.seconds or measured > MAX_MEASURE_S):
            return cycles


def analyse(rec, out):
    """Per-layer numbers of one traced cycle, from its spans and outputs."""
    from workloads import coord_bits, kind_of

    m = defaultdict(float)
    steps = defaultdict(list)
    busy = 0.0
    for s in rec.spans:
        name = s["name"]
        if name == "cycle" or name.startswith("phase."):
            continue
        d = s["end"] - s["start"]
        busy += d
        m[name + ".s"] += d
        m[name + ".calls"] += 1
        if "error" in s:
            m[name + ".failed"] += 1
        for key in ("retries", "emitted", "bytes", "problems"):
            m[f"{name}.{key}"] += s.get(key, 0)
        if "scale_bits" in s:
            m[name + ".scale_bits"] = max(m[name + ".scale_bits"], s["scale_bits"])
        note = s.get("steps")
        if note is not None:
            counts = [note["start_count"]] + note["counts"]
            m[name + ".steps"] += len(note["counts"])
            m[name + ".improved"] += sum(b < a for a, b in zip(counts, counts[1:]))
            stamps = note["stamps"]
            steps[name].extend(1000 * (b - a) for a, b in zip(stamps, stamps[1:]))
    for key, k in rec.outcomes.items():
        m[key] += k
    m["heuristics.shrink.emitted"] = m["heuristics.shrink.t1.emitted"] + m["heuristics.shrink.t2.emitted"]
    rect = [d for d in rec.submitted if kind_of(d) == "rect"]
    m["geometry.coord_bits_max"] = max(map(coord_bits, rect), default=0)
    m["heuristics.cell_walk.out_coord_bits"] = max(map(coord_bits, out.walked), default=0)
    m["registry.payload_bytes"] = sum(
        os.path.getsize(os.path.join(dirpath, f))
        for root in out.registries
        for dirpath, _, files in os.walk(root)
        for f in files
        if f != "index.json"
    )
    m["trace.coverage"] = busy / rec.wall_s
    return m, steps


def quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


HEURISTICS = (("random_relocation", "relocate"), ("cell_walk", "cellwalk"), ("sig_flip_search", "flip"))


def per_layer(cycles, names, save_s):
    """Per-layer metrics: medians over the traced cycles, step times pooled."""
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]

    def med(key):
        return statistics.median(c.layer[0].get(key, 0.0) for c in traced)

    values = {name: med(name) for name in names}
    for heur, short in HEURISTICS:
        name = f"heuristics.{heur}"
        step_ms = [x for c in traced for x in c.layer[1][name]]
        values[name + ".step_ms.p50"] = quantile(step_ms, 5)
        values[name + ".step_ms.p90"] = quantile(step_ms, 9)
        steps, secs = med(name + ".steps"), med(name + ".s")
        values[name + ".improved_ratio"] = med(name + ".improved") / steps if steps else 0.0
        values[short + "_steps_per_s"] = steps / secs if secs else 0.0
    values["io.save_drawing.s"] = save_s
    values["failed_ops_ratio"] = traced[0].failed / traced[0].attempted
    values["trace.overhead_s"] = reference_wall(traced) - reference_wall(untraced)
    for kind, value in run_pace(cycles).items():
        values["host.pace." + kind] = value
    return values


def run_pace(cycles):
    """Each phase's pace over the run, relative to the reference."""
    return {phase: pace.relative([s for c in cycles for s in c.paces[phase]], phase) for phase in pace.PHASE_KERNELS}


def reference_wall(cycles):
    """A cycle's wall time, typical of the cycles: its phases at the reference pace plus the rest."""
    phases = sorted(cycles[0].phase_s)
    rest = statistics.median(c.wall_s - sum(c.phase_s.values()) for c in cycles)
    return sum(reference_median(cycles, name) for name in phases) + rest


def reference_median(cycles, name):
    """A phase's time, typical of the cycles, at the reference pace.

    Every cycle makes the same calls in the same order, so the k-th call of
    each cycle does the same work.  The typical time is the sum over k of the
    median time of the k-th call, plus the median of the time outside calls:
    a stall that hits one call of one cycle drops out.  It is scaled by the
    phase's pace: the mean of the samples the cycles took in the phase, each
    weighted by the work time next to it, so that the host's pace counts
    where the time went.  Calls named in pace.UNPACED are summed as measured.
    """
    def calls(c):
        return [(n, s) for phase, n, s in c.calls if phase == name]

    paced = unpaced = 0.0
    for k in zip(*map(calls, cycles)):
        t = statistics.median(s for _, s in k)
        if k[0][0] in pace.UNPACED:
            unpaced += t
        else:
            paced += t
    paced += statistics.median(c.phase_s[name] - sum(s for _, s in calls(c)) for c in cycles)
    return pace.at_reference(paced, [s for c in cycles for s in c.paces[name]], name) + unpaced


def write_trace(cycles, run_id):
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", run_id + ".jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for c in cycles:
            for s in c.spans:
                fh.write(json.dumps(s) + "\n")
    return path


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": model}


def main():
    args = parse_args()
    load_library()
    from checks import Checker, CheckFailed
    from workloads import make_inputs

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = os.path.join(WORK, run_id)
    os.makedirs(workdir, exist_ok=True)
    checker = Checker(skew=1 if args.tamper == "count" else 0)
    try:
        setup, save, setup_paces = [], [], []
        pace.weigh(setup_paces, 0.0)
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            inputs = make_inputs(args.seed, GOLDEN, workdir)
            setup.append(perf_counter() - start)
            save.append(inputs.save_s)
            pace.weigh(setup_paces, setup[-1])
        try:
            cycles = measure(args, inputs, checker, run_id, workdir)
            correct = True
        except CheckFailed as exc:
            print(f"correctness check failed: {exc}", file=sys.stderr)
            cycles, correct = [], False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"workload": args.workload, "seed": args.seed, "cycles": len(cycles), "machine": machine()}
    if cycles:
        info["pace"] = run_pace(cycles)
    result = {"correct": correct, "attempted": 1, "failed": 0, "metrics": {}}
    if correct:
        base = cycles[0]
        result["attempted"], result["failed"] = base.attempted, base.failed
        if args.trace:
            values = per_layer(cycles, [m["name"] for m in spec["per_layer"]], statistics.median(save))
            wanted = spec["per_layer"]
            info["trace_file"] = os.path.relpath(write_trace(cycles, run_id), ROOT)
        else:
            untraced = [c for c in cycles if not c.traced]
            values = {
                "setup_s": pace.at_reference(statistics.median(setup), setup_paces, "rect"),
                "wall_s": reference_wall(untraced),
                "rect_s": reference_median(untraced, "rect"),
                "pseudo_s": reference_median(untraced, "pseudo"),
                "bound_reached_rect": float(base.bounds["rect"]),
                "bound_reached_pseudo": float(base.bounds["pseudo"]),
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = spec["end_to_end"]
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
