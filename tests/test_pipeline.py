"""Orchestration: config parsing and validation, seeded lane determinism,
and short end-to-end runs that must leave the registry self-consistent."""

import json
import os
import random
from fractions import Fraction

import pytest

from crossnum import pipeline
from crossnum.doubling import double_points
from crossnum.geometry import DegenerateError, PointSet
from crossnum.halving import halving_matching
from crossnum.pipeline import TRIANGLE, PipelineConfig, orchestrate, _lane_seed, _Run
from crossnum.registry import Registry
from crossnum.signatures import signature_of

from conftest import rand_general

K4_INNER = PointSet(((0, 0), (7, 1), (3, 8), (2, 3)))  # 0 crossings, best rect bound


def _fast_cfg(path, seed=0, workers=1, run_time=12.0):
    return PipelineConfig(
        kinds=("rect", "pseudo"),
        top_k=2,
        heuristic_budgets={"relocate": 60, "cellwalk": 25, "flip": 80},
        limited_budget=40,
        stall_window=0.5,
        shrink_target=3,
        shrink_tuples=(1,),
        worker_count=workers,
        registry_path=str(path),
        seed=seed,
        run_time=run_time,
        max_n={"rect": 16, "pseudo": 12},
    )


def test_lane_seed_deterministic():
    a = _lane_seed(7, "rect", 5, 0, 1, "relocate")
    b = _lane_seed(7, "rect", 5, 0, 1, "relocate")
    c = _lane_seed(7, "rect", 5, 0, 2, "relocate")
    assert a == b and a != c
    assert isinstance(a, int) and a >= 0


def test_triangle_doubles_standalone():
    M = halving_matching(TRIANGLE)
    assert M
    S2, rep = double_points(TRIANGLE, M)
    assert (S2.n, rep.output_crossings) == (6, 3)


def test_failing_halving_match_tries_next_record(tmp_path, monkeypatch):
    cfg = _fast_cfg(tmp_path / "reg")
    run = _Run(cfg)
    assert run.submit(K4_INNER, "k4") and run.submit(TRIANGLE, "seed")
    real = pipeline.halving_matching

    def matcher(S):
        if S.n == 4:
            raise DegenerateError("no balancing gap")
        return real(S)

    monkeypatch.setattr(pipeline, "halving_matching", matcher)
    assert run.double_phase("rect")
    assert [d["input_n"] for d in run.report["doublings"]] == [3]
    assert any("n=4 failed: no balancing gap" in line for line in run.report["log"])


def test_double_phase_passes_over_stored_doubles(tmp_path):
    # the triangle's double is stored at its predicted count, so the phase
    # doubles that 6-point record instead of redoing 3 -> 6
    cfg = PipelineConfig(kinds=("rect",), top_k=2, registry_path=str(tmp_path / "reg"), max_n={"rect": 12})
    run = _Run(cfg)
    S6, _ = double_points(TRIANGLE, halving_matching(TRIANGLE))
    assert run.submit(K4_INNER, "k4") and run.submit(TRIANGLE, "seed") and run.submit(S6, "double")
    assert run.double_phase("rect")
    assert run.report["doublings"][0]["input_n"] == 6
    assert run.report["no_matching"] == [{"kind": "rect", "n": 4}]
    assert run.registry.get("rect", 12) is not None


def test_double_phase_remembers_records_without_matching(tmp_path, monkeypatch):
    cfg = PipelineConfig(kinds=("rect",), top_k=2, registry_path=str(tmp_path / "reg"), max_n={"rect": 12})
    run = _Run(cfg)
    assert run.submit(K4_INNER, "k4") and run.submit(TRIANGLE, "seed")
    seen = []
    real = pipeline.halving_matching

    def matcher(S):
        seen.append(S)
        return real(S)

    monkeypatch.setattr(pipeline, "halving_matching", matcher)
    run.double_phase("rect")
    run.double_phase("rect")
    assert seen.count(K4_INNER) == 1
    assert run.report["no_matching"] == [{"kind": "rect", "n": 4}]


def test_double_phase_stops_at_the_deadline(tmp_path, monkeypatch):
    # the clock runs out once the doubled drawing, or else its first shrink
    # output, is submitted: nothing after it is, and no limited search runs
    steps = ["double(n=3)", "double(n=3)->shrink(tuple=1,n=5)"]
    for i, last in enumerate(steps):
        cfg = PipelineConfig(
            kinds=("rect",), shrink_tuples=(1, 2), registry_path=str(tmp_path / last), max_n={"rect": 12}
        )
        run = _Run(cfg)
        assert run.submit(TRIANGLE, "seed")
        submitted, searched = [], []
        submit = run.submit

        def recording_submit(drawing, provenance):
            submitted.append(provenance)
            return submit(drawing, provenance)

        monkeypatch.setattr(run, "submit", recording_submit)
        monkeypatch.setattr(run, "out_of_time", lambda: last in submitted)
        monkeypatch.setattr(run, "_search", lambda *args: searched.append(args) or [])
        assert run.double_phase("rect")
        assert submitted == steps[: i + 1] and searched == []


def test_optimize_phase_accepts_pinned_submissions(tmp_path):
    cfg = PipelineConfig(
        top_k=3,
        heuristic_budgets={"relocate": 2, "cellwalk": 20, "flip": 40},
        worker_count=2,
        registry_path=str(tmp_path / "reg"),
        seed=2,
    )
    run = _Run(cfg)
    rng = random.Random(2024)
    for n in (8, 10, 12):
        S = rand_general(rng, n)
        assert run.submit(S, f"random(n={n})") and run.submit(signature_of(S), f"signature(n={n})")
    run.report["accepted"].clear()
    submitted = []
    submit = run.submit

    def recording_submit(drawing, provenance):
        submitted.append(provenance)
        return submit(drawing, provenance)

    run.submit = recording_submit
    run.optimize_phase(0)
    # every heuristic of every lane of every record submits something
    for kind, names in (("rect", ("relocate", "cellwalk")), ("pseudo", ("flip",))):
        for n in (8, 10, 12):
            for lane in range(2):
                for name in names:
                    seed = _lane_seed(2, kind, n, 0, lane, name)
                    assert any(f"{name}(seed={seed}" in p for p in submitted), (kind, n, lane, name)
    # pinned: a change to a lane seed, a provenance or the submission order shows here
    got = [(a["kind"], a["n"], a["crossings"], a["provenance"]) for a in run.report["accepted"]]
    assert got == [
        ("rect", 10, 117, "relocate(seed=13085118299881858702) from n=10"),
        ("rect", 10, 110, "cellwalk(seed=7772963780504535098,v=4) from n=10"),
        ("rect", 8, 34, "relocate(seed=15972129331180475181) from n=8"),
        ("rect", 12, 287, "relocate(seed=12306937525195013720) from n=12"),
        ("pseudo", 10, 110, "flip(seed=10624001904088428060) from n=10"),
        ("pseudo", 10, 109, "flip(seed=4001607070278636027) from n=10"),
        ("pseudo", 8, 39, "flip(seed=9752787392637478263) from n=8"),
        ("pseudo", 12, 404, "flip(seed=14685336696299317026) from n=12"),
        ("pseudo", 12, 400, "flip(seed=7595249336084452522) from n=12"),
    ]


def test_config_round_trip_and_validation(tmp_path):
    cfgd = {
        "kinds": ["rect"],
        "top_k": 1,
        "stall_window": 1.0,
        "run_time": 2.0,
        "registry_path": str(tmp_path / "reg"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    cfg = PipelineConfig.from_json(p)
    assert cfg.kinds == ("rect",) and cfg.top_k == 1

    with pytest.raises(ValueError) as ei:
        PipelineConfig.from_dict({"bogus": 1})
    assert "bogus" in str(ei.value)
    with pytest.raises(ValueError):
        PipelineConfig(top_k=0)
    for bad in ({"heuristic_budgets": {"walk": 5}}, {"max_n": {"rect": -1}}):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(bad)

    # a partial dict overrides only the keys it names
    cfg = PipelineConfig.from_dict(
        {"heuristic_budgets": {"flip": 5}, "kinds": ["rect"], "max_n": {"pseudo": 20}}
    )
    assert cfg.heuristic_budgets == {"relocate": 300, "cellwalk": 60, "flip": 5}
    assert cfg.max_n == {"rect": 192, "pseudo": 20}


def test_run_and_resume(tmp_path):
    cfg = _fast_cfg(tmp_path / "reg")
    report = orchestrate(cfg)
    reg = Registry(tmp_path / "reg")
    for k in ("rect", "pseudo"):
        ns = [r.n for r in reg.records(k)]
        assert 3 in ns and 6 in ns, ns  # doubling fired and intermediates landed
        assert len(ns) >= 4
    assert report["doublings"], "no doubling events"
    for d in report["doublings"]:
        assert d["output_crossings"] == d["predicted_crossings"], d
    assert reg.fsck() == []
    for k, hist in report["bound_history"].items():
        vals = [Fraction(h[2]) for h in hist]
        assert all(b <= a for a, b in zip(vals, vals[1:])), (k, vals)
        assert report["final_best"][k] is not None

    # a second run resumes from stored records and never regresses the bound
    report2 = orchestrate(_fast_cfg(tmp_path / "reg", run_time=6.0))
    assert reg.fsck() == []
    for k, hist in report2["bound_history"].items():
        v0 = Fraction(report["final_best"][k][1])
        vals = [Fraction(h[2]) for h in hist]
        assert all(v <= v0 for v in vals), (k, v0, vals)


def _truncated_registry(path):
    """A registry of the triangle and its double whose n=6 payload has lost
    its last line."""
    run = _Run(PipelineConfig(kinds=("rect",), registry_path=str(path)))
    S6, _ = double_points(TRIANGLE, halving_matching(TRIANGLE))
    assert run.submit(TRIANGLE, "seed") and run.submit(S6, "double")
    payload = run.registry.get("rect", 6).payload_path
    with open(payload, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(payload, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    return run.registry


def test_bad_record_is_set_aside(tmp_path):
    reg = _truncated_registry(tmp_path / "reg")
    path = str(tmp_path / "reg")
    cfg = PipelineConfig(kinds=("rect",), registry_path=path, run_time=5.0, stall_window=1.0, max_n={"rect": 24})
    report = orchestrate(cfg)
    assert report["cycles"] > 1 and report["seconds"] >= 5.0
    failed = report["failed_records"]
    assert [(f["kind"], f["n"]) for f in failed] == [("rect", 6)]
    assert failed[0]["error"].startswith("ParseError: expected 6 points")
    assert any("rect/n6" in problem for problem in reg.fsck())


def test_missing_payload_is_set_aside(tmp_path):
    reg = _truncated_registry(tmp_path / "reg")
    os.remove(reg.get("rect", 6).payload_path)
    cfg = PipelineConfig(kinds=("rect",), registry_path=str(tmp_path / "reg"), max_n={"rect": 24})
    for phase in (lambda run: run.optimize_phase(0), lambda run: run.double_phase("rect")):
        run = _Run(cfg)
        phase(run)
        failed = run.report["failed_records"]
        assert [(f["kind"], f["n"]) for f in failed] == [("rect", 6)]
        assert failed[0]["error"].startswith("ParseError: payload unreadable: ")
    cfg = PipelineConfig(kinds=("rect",), registry_path=str(tmp_path / "reg"), run_time=3.0, stall_window=0.5)
    report = orchestrate(cfg)
    assert report["cycles"] > 1 and report["seconds"] >= 3.0
    assert [(f["kind"], f["n"]) for f in report["failed_records"]] == [("rect", 6)]
    assert any("rect/n6" in problem for problem in reg.fsck())


def test_program_errors_end_the_run(tmp_path, monkeypatch):
    _truncated_registry(tmp_path / "reg")

    def broken(path):
        raise TypeError("not a record error")

    monkeypatch.setattr(pipeline, "load_drawing", broken)
    run = _Run(PipelineConfig(kinds=("rect",), registry_path=str(tmp_path / "reg")))
    with pytest.raises(TypeError):
        run.optimize_phase(0)
    with pytest.raises(TypeError):
        run.double_phase("rect")
    assert run.report["failed_records"] == []


def _until_first_double(rep):
    out = []
    for a in rep["accepted"]:
        if a["provenance"].startswith("double"):
            break
        out.append((a["kind"], a["n"], a["crossings"], a["provenance"]))
    return out


def test_seed_lanes_reproducible_across_worker_counts(tmp_path):
    ra = orchestrate(_fast_cfg(tmp_path / "a", seed=7, workers=1, run_time=8.0))
    rb = orchestrate(_fast_cfg(tmp_path / "b", seed=7, workers=4, run_time=8.0))
    # identical seed lanes produce identical pre-doubling submissions; later
    # cycles may differ in number because stall detection is wall-clock
    a_first, b_first = _until_first_double(ra), _until_first_double(rb)
    common = min(len(a_first), len(b_first))
    assert common > 0
    assert a_first[:common] == b_first[:common]
