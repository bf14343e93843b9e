"""Command-line interface, exercised through subprocesses.

Exit codes under test: 0 success, 1 domain errors, 2 verification
mismatches, 3 I/O and parse errors (including usage errors).
"""

import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from crossnum.geometry import PointSet, count_crossings
from crossnum.io import parse_points, parse_signature_text, save_points, save_signature
from crossnum.signatures import (
    Signature,
    convex_signature,
    count_crossings_sig,
    flip,
    is_realizable,
    signature_of,
)

TRI = PointSet(((0, 0), (1, 0), (0, 1)))
CONV5 = PointSet(((0, 0), (10, 1), (13, 9), (5, 14), (-3, 8)))
TRI4 = PointSet(((0, 0), (9, 0), (0, 9), (3, 3)))  # triangle + interior point
CONV8 = PointSet(
    ((8, 0), (6, 6), (0, 8), (-6, 6), (-8, 0), (-6, -6), (0, -8), (6, -6))
)


def run(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "crossnum.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    td = tmp_path_factory.mktemp("cli")
    save_points(TRI, td / "tri.pts")
    save_points(CONV5, td / "conv5.pts")
    save_points(TRI4, td / "tri4.pts")
    save_points(CONV8, td / "conv8.pts")
    save_signature(convex_signature(5), td / "conv5.sig")
    save_signature(convex_signature(6), td / "conv6.sig")
    (td / "garbage.txt").write_text("not a drawing\nat all\n")
    return td


def test_count(work):
    r = run("count", str(work / "tri.pts"))
    assert r.returncode == 0 and r.stdout.strip() == "0"
    r = run("count", str(work / "conv5.pts"), "--brute")
    assert r.returncode == 0 and r.stdout.strip() == "5"
    r = run("count", str(work / "conv6.sig"))
    assert r.returncode == 0 and r.stdout.strip() == "15"
    r = run("count", str(work / "garbage.txt"))
    assert r.returncode == 3 and "error" in r.stderr
    r = run("count", str(work / "missing.pts"))
    assert r.returncode == 3


def test_bound(work):
    r = run("bound", str(work / "conv5.pts"), "--kind", "rect")
    assert r.returncode == 0 and "crossings = 5" in r.stdout and "bound = " in r.stdout
    r = run("bound", str(work / "conv5.pts"), "--kind", "pseudo")
    assert r.returncode == 0
    r = run("bound", str(work / "conv6.sig"), "--kind", "rect")
    assert r.returncode == 1 and "pseudolinear" in r.stderr
    r = run("bound", str(work / "conv5.pts"))  # missing --kind: usage error
    assert r.returncode == 3


def test_count_and_bound_reject_nonrealizable_signatures(work):
    # a cyclic 4-vertex pattern, from which the counter reads -3 crossings;
    # verify rejects it too
    D = Signature(4, b"\x05")
    assert not is_realizable(D)
    save_signature(D, work / "cyclic4.sig")
    for argv in (("count",), ("count", "--brute"), ("bound", "--kind", "pseudo")):
        r = run(argv[0], str(work / "cyclic4.sig"), *argv[1:])
        assert r.returncode == 2 and "not realizable" in r.stderr and r.stdout == "", argv
    r = run("verify", str(work / "cyclic4.sig"), "--kind", "pseudo")
    assert r.returncode == 2 and "not realizable" in r.stderr
    r = run("bound", str(work / "conv6.sig"), "--kind", "pseudo")
    assert r.returncode == 0 and "crossings = 15" in r.stdout
    r = run("bound", str(work / "tri4.pts"), "--kind", "pseudo")
    assert r.returncode == 0 and "crossings = 0" in r.stdout


def test_signature(work):
    r = run("signature", "--from-points", str(work / "conv5.pts"))
    assert r.returncode == 0
    assert parse_signature_text(r.stdout) == signature_of(CONV5)


def test_double(work):
    r = run("double", str(work / "tri.pts"))
    assert r.returncode == 0 and "predicted 3" in r.stderr
    S6 = parse_points(r.stdout)
    assert len(S6) == 6 and count_crossings(S6) == 3
    r = run("double", str(work / "tri4.pts"))
    assert r.returncode == 1 and "no halving matching" in r.stderr
    r = run("double", str(work / "tri.pts"), "--kind", "pseudo")
    assert r.returncode == 0
    D6 = parse_signature_text(r.stdout)
    assert D6.n == 6 and count_crossings_sig(D6) == 6
    assert "predicted 6" in r.stderr
    r = run("double", str(work / "conv6.sig"), "--kind", "rect")
    assert r.returncode == 1


def test_shrink(work):
    r = run("shrink", str(work / "conv8.pts"), "--to", "5", "--tuple", "2")
    assert r.returncode == 0
    S5 = parse_points(r.stdout)
    assert len(S5) == 5 and count_crossings(S5) == 5
    assert "n = 6" in r.stderr and "n = 5" in r.stderr  # progress receipts
    r = run("shrink", str(work / "tri.pts"), "--to", "5")
    assert r.returncode == 1  # already below target: domain error


def test_optimize(work):
    args = ("--heuristic", "relocate", "--steps", "400", "--seed", "3")
    r = run("optimize", str(work / "conv5.pts"), *args)
    assert r.returncode == 0
    assert count_crossings(parse_points(r.stdout)) <= 5
    assert "step " in r.stderr and "final count" in r.stderr
    r2 = run("optimize", str(work / "conv5.pts"), *args)
    assert r2.stdout == r.stdout  # deterministic under a fixed seed

    r = run(
        "optimize", str(work / "conv8.pts"), "--heuristic", "cellwalk",
        "--steps", "60", "--seed", "1", "--vertex", "2", "--mode", "greedy",
    )
    assert r.returncode == 0
    assert count_crossings(parse_points(r.stdout)) <= count_crossings(CONV8)

    r = run(
        "optimize", str(work / "conv5.sig"), "--heuristic", "flip",
        "--steps", "300", "--seed", "2",
    )
    assert r.returncode == 0
    Dout = parse_signature_text(r.stdout)
    assert count_crossings_sig(Dout) <= 5 and is_realizable(Dout)

    # heuristic/drawing-type mismatches and bad vertex index are domain errors
    r = run("optimize", str(work / "conv5.pts"), "--heuristic", "flip", "--steps", "5")
    assert r.returncode == 1
    r = run("optimize", str(work / "conv5.sig"), "--heuristic", "relocate", "--steps", "5")
    assert r.returncode == 1
    r = run(
        "optimize", str(work / "conv8.pts"), "--heuristic", "cellwalk",
        "--steps", "5", "--vertex", "99",
    )
    assert r.returncode == 1


def test_nonrealizable_signature_is_a_domain_error(work):
    # A seeded random 7-vertex signature that is not realizable (the one in
    # tests/test_heuristics.py), with its padding bits cleared as the file
    # format requires: shrink and flip search refuse it before any step.
    rng = random.Random(0)
    bits = bytearray(rng.getrandbits(8) for _ in range(5))
    bits[-1] &= 0x07  # 35 sign bits
    D = Signature(7, bytes(bits))
    assert not is_realizable(D)
    save_signature(D, work / "bad7.sig")
    for tup in ("1", "2"):
        r = run("shrink", str(work / "bad7.sig"), "--to", "5", "--tuple", tup)
        assert r.returncode == 1 and "not realizable" in r.stderr and r.stdout == ""
    r = run("optimize", str(work / "bad7.sig"), "--heuristic", "flip", "--steps", "5")
    assert r.returncode == 1 and "not realizable" in r.stderr and r.stdout == ""


def test_verify(work):
    r = run("verify", str(work / "conv6.sig"), "--kind", "pseudo")
    assert r.returncode == 0
    assert "crossings: 15" in r.stdout and "realizable: True" in r.stdout
    assert "brute_crossings: 15" in r.stdout
    r = run("verify", str(work / "conv6.sig"), "--kind", "rect")
    assert r.returncode == 2 and "verification mismatch" in r.stderr
    # a malformed payload is a parse error (3), not a verification mismatch (2)
    r = run("verify", str(work / "garbage.txt"), "--kind", "rect")
    assert r.returncode == 3 and "verification mismatch" not in r.stderr

    bad = None
    D5 = convex_signature(5)
    for tri in combinations(range(5), 3):
        cand = flip(D5, tri)
        if not is_realizable(cand):
            bad = cand
            break
    assert bad is not None
    save_signature(bad, work / "bad.sig")
    r = run("verify", str(work / "bad.sig"), "--kind", "pseudo")
    assert r.returncode == 2


def test_export_svg(work):
    r = run("export-svg", str(work / "tri.pts"), "-o", str(work / "tri.svg"))
    assert r.returncode == 0
    assert (work / "tri.svg").read_text().startswith("<svg")
    r = run("export-svg", str(work / "conv6.sig"), "-o", str(work / "conv6.svg"))
    assert r.returncode == 0 and "polyline" in (work / "conv6.svg").read_text()
    r = run("export-svg", str(work / "tri.pts"), "-o", "/nonexistent-dir/x.svg")
    assert r.returncode == 3


def test_pipeline_and_registry(work):
    cfg = {
        "kinds": ["rect", "pseudo"],
        "top_k": 2,
        "heuristic_budgets": {"relocate": 60, "cellwalk": 25, "flip": 80},
        "limited_budget": 40,
        "stall_window": 0.5,
        "shrink_target": 3,
        "shrink_tuples": [1],
        "worker_count": 2,
        "registry_path": str(work / "reg"),
        "seed": 11,
        "run_time": 8.0,
        "max_n": {"rect": 12, "pseudo": 12},
    }
    (work / "cfg.json").write_text(json.dumps(cfg))
    r = run("pipeline", "--config", str(work / "cfg.json"))
    assert r.returncode == 0, r.stderr[-500:]
    report = json.loads(r.stdout)
    assert report["final_best"] and report["accepted"]

    r = run("registry", "fsck", "--registry", str(work / "reg"))
    assert r.returncode == 0 and "registry clean" in r.stdout
    r = run("registry", "best", "--registry", str(work / "reg"))
    assert r.returncode == 0 and "rect:" in r.stdout and "pseudo:" in r.stdout

    # an orphan payload makes fsck exit with the mismatch code
    orphan = work / "reg" / "rect" / "n99.pts"
    orphan.write_text("3\n0 0\n1 0\n0 1\n")
    r = run("registry", "fsck", "--registry", str(work / "reg"))
    assert r.returncode == 2 and "orphan" in r.stdout
    os.unlink(orphan)

    cfg["registry_path"] = str(work / "reg2")
    cfg["seed"] = 99
    cfg["run_time"] = 4.0
    (work / "cfg2.json").write_text(json.dumps(cfg))
    r = run("pipeline", "--config", str(work / "cfg2.json"))
    assert r.returncode == 0, r.stderr[-300:]
    r = run("registry", "import", str(work / "reg2"), "--registry", str(work / "reg"))
    assert r.returncode == 0 and ("accepted" in r.stdout or "rejected" in r.stdout)
    r = run("registry", "fsck", "--registry", str(work / "reg"))
    assert r.returncode == 0

    r = run("registry", "best", "--registry", str(work / "empty-reg"))
    assert r.returncode == 1

    (work / "bad.json").write_text("{nope")
    r = run("pipeline", "--config", str(work / "bad.json"))
    assert r.returncode == 3
    cfg["bogus_field"] = 1
    (work / "bad2.json").write_text(json.dumps(cfg))
    r = run("pipeline", "--config", str(work / "bad2.json"))
    assert r.returncode == 3 and "config" in r.stderr
