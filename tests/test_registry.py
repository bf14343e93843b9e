"""Registry: submissions re-verified from the payload, best-bound queries
over every stored n, fsck, and directory merges."""

import errno
import json
import os
import random
from fractions import Fraction

import pytest

from crossnum import registry
from crossnum.geometry import PointSet, count_crossings
from crossnum.io import format_points, format_signature_text, save_points, save_signature
from crossnum.registry import DrawingRecord, Registry, bound_for, verify
from crossnum.signatures import Signature, convex_signature, count_crossings_sig, is_realizable, signature_of

from conftest import convex_points, rand_general

TRI = PointSet(((0, 0), (4, 1), (2, 5)))
K5_CONVEX = PointSet(((0, 0), (10, 1), (13, 9), (5, 14), (-3, 8)))
K5_ONE = PointSet(((0, 0), (10, 0), (5, 9), (5, 3), (6, 4)))  # 1 crossing
K4_INNER = PointSet(((0, 0), (7, 1), (3, 8), (2, 3)))  # 0 crossings


@pytest.fixture
def reg(tmp_path):
    return Registry(tmp_path / "reg")


def _nonrealizable5():
    from itertools import combinations

    base = convex_signature(5)
    triples = list(combinations(range(5), 3))
    for t1 in triples:
        for t2 in triples:
            D = base.flip(t1).flip(t2)
            if not is_realizable(D):
                return D
    raise AssertionError("no non-realizable 5-signature found")


def test_empty_registry(reg):
    with pytest.raises(LookupError):
        reg.best_bound("rect")
    assert reg.fsck() == []


def test_submit_and_best_bound(reg):
    assert reg.submit_drawing(TRI, "seed")
    n, b = reg.best_bound("rect")
    assert (n, b.value) == (3, Fraction(8, 21))

    res = reg.submit_drawing(TRI, "again")
    assert not res and res.reason == "not an improvement"

    assert reg.submit_drawing(K5_CONVEX, "convex")
    assert reg.get("rect", 5).crossings == 5
    assert reg.submit_drawing(K5_ONE, "better")
    r5 = reg.get("rect", 5)
    assert r5.crossings == 1 and "better" in r5.provenance
    assert not reg.submit_drawing(K5_CONVEX, "worse")

    # the best bound minimizes over every stored n, not the largest n:
    # the n=3 bound 8/21 beats the n=5 bound from one crossing
    n, b = reg.best_bound("rect")
    assert n == 3 and b.value == Fraction(8, 21)
    assert bound_for("rect", 5, 1).value > Fraction(8, 21)


def _counting(monkeypatch, name):
    """Wrap the registry module's name so that its calls are counted."""
    calls = []
    real = getattr(registry, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(registry, name, wrapper)
    return calls


def test_submit_drawing_verifies_once(reg, monkeypatch):
    rect_counts = _counting(monkeypatch, "count_crossings")
    assert reg.submit_drawing(K5_ONE, "rect")
    assert len(rect_counts) == 1
    with open(reg.get("rect", 5).payload_path, "rb") as fh:
        assert fh.read() == format_points(K5_ONE).encode()

    D6 = convex_signature(6)
    realizable_calls = _counting(monkeypatch, "is_realizable")
    assert reg.submit_drawing(D6, "pseudo")
    assert (len(rect_counts), len(realizable_calls)) == (2, 1)
    with open(reg.get("pseudo", 6).payload_path, "rb") as fh:
        assert fh.read() == format_signature_text(D6).encode()


def test_submit_drawing_rejects_uncertifiable(reg, tmp_path):
    collinear = PointSet(((0, 0), (1, 1), (2, 2), (5, 0), (0, 7)))
    res = reg.submit_drawing(collinear, "collinear")
    assert not res and "collinear" in res.reason
    # the two cyclic 4-vertex patterns have no hull vertex
    for bad in (_nonrealizable5(), Signature(4, b"\x05"), Signature(4, b"\x0a")):
        res = reg.submit_drawing(bad, "bad")
        assert not res and "realizable" in res.reason
        # a realizable mark does not travel with the payload
        bad._realizable = True
        res = reg.submit_drawing(bad, "marked")
        assert not res and "realizable" in res.reason
    assert reg.records() == [] and reg.fsck() == []
    with pytest.raises(LookupError):
        reg.best_bound("pseudo")
    assert sorted(os.listdir(tmp_path / "reg")) == ["pseudo", "rect"]
    assert os.listdir(tmp_path / "reg" / "rect") == os.listdir(tmp_path / "reg" / "pseudo") == []


def test_tampered_records_rejected(reg, tmp_path):
    path = str(tmp_path / "k5.pts")
    save_points(K5_ONE, path)
    res = reg.submit(DrawingRecord("rect", 5, 2, bound_for("rect", 5, 2), path, "t"))
    assert not res and "count mismatch" in res.reason
    res = reg.submit(DrawingRecord("rect", 5, 1, bound_for("rect", 5, 2), path, "t"))
    assert not res and "bound mismatch" in res.reason
    res = reg.submit(DrawingRecord("rect", 6, 1, None, path, "badn"))
    assert not res and "vertex count mismatch" in res.reason
    res = reg.submit(DrawingRecord("rect", 5, 1, None, str(tmp_path / "nope.pts"), ""))
    assert not res and "unreadable" in res.reason
    # a points payload cannot certify a pseudolinear record
    res = reg.submit(DrawingRecord("pseudo", 5, 1, None, path, ""))
    assert not res and "signature" in res.reason
    assert res.reason == "pseudolinear payload does not hold a signature"
    # nor a signature payload a rectilinear one
    sig = str(tmp_path / "c5.sig")
    save_signature(convex_signature(5), sig)
    res = reg.submit(DrawingRecord("rect", 5, 5, None, sig, ""))
    assert not res and res.reason == "rectilinear payload does not hold a point set"


def test_pseudo_records(reg, tmp_path):
    D6 = convex_signature(6)
    assert reg.submit_drawing(D6, "convex6")
    assert reg.get("pseudo", 6).crossings == 15
    assert reg.best_bound("pseudo")[0] == 6

    bad = _nonrealizable5()
    p = str(tmp_path / "bad.sig")
    save_signature(bad, p)
    res = reg.submit(DrawingRecord("pseudo", 5, count_crossings_sig(bad), None, p, ""))
    assert not res and "realizable" in res.reason


def test_verify_reports(reg, tmp_path):
    path = str(tmp_path / "k5.pts")
    save_points(K5_ONE, path)
    rep = verify(path, "rect")
    assert rep["crossings"] == 1 and rep["brute_crossings"] == 1
    reg.submit_drawing(convex_signature(6), "c6")
    rep = verify(reg.get("pseudo", 6).payload_path, "pseudo")
    assert rep["crossings"] == 15 and rep["realizable"]


def test_fsck_orphans_and_corruption(reg, tmp_path):
    reg.submit_drawing(TRI, "seed")
    reg.submit_drawing(K5_ONE, "best")
    assert reg.fsck() == []

    orphan = tmp_path / "reg" / "rect" / "n999.pts"
    orphan.write_text("3\n0 0\n1 0\n0 1\n")
    probs = reg.fsck()
    assert len(probs) == 1 and "orphan" in probs[0]
    os.unlink(orphan)

    victim = reg.get("rect", 5).payload_path
    orig = open(victim).read()
    with open(victim, "w") as fh:
        fh.write("5\n0 0\n10 1\n13 9\n5 14\n-3 8\n")  # convex: 5 crossings, not 1
    probs = reg.fsck()
    assert any("recount" in p or "crossings" in p for p in probs)
    with open(victim, "w") as fh:
        fh.write(orig)
    assert reg.fsck() == []


def test_import_dir_merge(reg, tmp_path):
    reg.submit_drawing(TRI, "seed")
    reg.submit_drawing(K5_ONE, "best")
    reg2 = Registry(tmp_path / "reg2")
    assert reg2.submit_drawing(K5_CONVEX, "other machine")
    assert count_crossings(K4_INNER) == 0
    assert reg2.submit_drawing(K4_INNER, "k4")
    rows = reg.import_dir(tmp_path / "reg2")
    got = {(k, n): bool(r) for k, n, r in rows}
    assert got[("rect", 5)] is False  # ours is better
    assert got[("rect", 4)] is True
    assert reg.get("rect", 4).crossings == 0
    assert reg.fsck() == []
    stray = [f for f in os.listdir(tmp_path / "reg") if f.startswith(".tmp")]
    assert stray == []


def test_best_records_ordering(reg):
    reg.submit_drawing(TRI, "")
    reg.submit_drawing(K4_INNER, "")
    reg.submit_drawing(K5_ONE, "")
    tops = reg.best_records("rect", 2)
    assert [r.n for r in tops] == [4, 3]
    vals = [r.bound.value for r in tops]
    assert vals == sorted(vals)
    assert reg.best_bound("rect")[0] == 4


def _fill(reg, rng):
    """Interleaved submits of both kinds, many improving a stored n."""
    for n in range(3, 10):
        assert reg.submit_drawing(convex_points(n), "convex")
        assert reg.submit_drawing(convex_signature(n), "convex")
        reg.submit_drawing(signature_of(rand_general(rng, n)), "random")
    assert reg.submit_drawing(K5_ONE, "better")
    assert reg.submit_drawing(K4_INNER, "better")


def test_reads_after_submits_parse_nothing(reg, tmp_path, monkeypatch):
    _fill(reg, random.Random(2105))
    parses = _counting(monkeypatch, "_parse_index")
    built = _counting(monkeypatch, "DrawingRecord")
    for kind in ("rect", "pseudo"):
        reg.records(kind)
        reg.best_records(kind)
        reg.best_records(kind, 3)
        reg.best_bound(kind)
        reg.get(kind, 5)
    reg.records()
    assert parses == [] and built == []

    # a write by a second Registry on the directory: the next read parses
    # the new index once, and the reads after it not at all
    other = Registry(tmp_path / "reg")
    assert other.submit_drawing(PointSet(((0, 0), (30, 1), (14, 29), (13, 8), (17, 9), (15, 13))), "other")
    parses.clear()
    built.clear()
    assert reg.get("rect", 6).provenance == "other"
    assert len(parses) == 1 and len(built) == len(reg.records())
    reg.best_records("rect")
    reg.records()
    assert len(parses) == 1


def test_best_records_follow_interleaved_submits(reg, tmp_path):
    rng = random.Random(2106)
    _fill(reg, rng)
    for n in range(10, 14):
        reg.submit_drawing(rand_general(rng, n), "random")
        reg.submit_drawing(signature_of(rand_general(rng, n)), "random")
        for kind in ("rect", "pseudo"):
            ranked = sorted(reg.records(kind), key=lambda r: (r.bound.value, r.n))
            assert reg.best_records(kind) == ranked
            assert reg.best_records(kind, 2) == ranked[:2]
            assert reg.best_bound(kind) == (ranked[0].n, ranked[0].bound)
    # the records updated in place are the ones a fresh parse builds, and
    # the index is json's compact sorted dump of the records' fields
    fresh = Registry(tmp_path / "reg")
    assert fresh.records() == reg.records()
    assert all(fresh.best_records(k) == reg.best_records(k) for k in ("rect", "pseudo"))
    with open(os.path.join(reg.path, "index.json"), encoding="utf-8") as fh:
        text = fh.read()
    index = json.loads(text)
    assert text == json.dumps(index, sort_keys=True) + "\n"
    assert index == {
        kind: {
            str(r.n): {
                "crossings": r.crossings,
                "bound": str(r.bound),
                "payload": os.path.relpath(r.payload_path, reg.path),
                "provenance": r.provenance,
                "created_at": r.created_at,
            }
            for r in reg.records(kind)
        }
        for kind in ("rect", "pseudo")
    }


def _temp_files(reg):
    return [
        name
        for d in ("", "rect", "pseudo")
        for name in os.listdir(os.path.join(reg.path, d))
        if name.startswith(".tmp-")
    ]


def test_failed_index_write(reg, tmp_path, monkeypatch):
    assert reg.submit_drawing(TRI, "seed")
    real = os.replace

    def refuse_index(src, dst):
        if os.path.basename(dst) == "index.json":
            raise OSError(errno.ENOSPC, "no space left")
        return real(src, dst)

    monkeypatch.setattr(registry.os, "replace", refuse_index)
    with pytest.raises(OSError):
        reg.submit_drawing(K4_INNER, "lost")
    monkeypatch.undo()
    assert _temp_files(reg) == []
    assert reg.get("rect", 4) is None
    assert reg.records() == Registry(tmp_path / "reg").records()
    assert [r.n for r in reg.records()] == [3]
    # the payload landed before the index failed: fsck reports it, and the
    # next accepted submit writes an index without it
    assert reg.fsck() == [f"{os.path.join('rect', 'n4.pts')}: orphan payload (not in the index)"]
    assert reg.submit_drawing(K5_ONE, "next")
    with open(os.path.join(reg.path, "index.json"), encoding="utf-8") as fh:
        assert sorted(json.load(fh)["rect"]) == ["3", "5"]


def test_failed_payload_write(reg, monkeypatch):
    assert reg.submit_drawing(TRI, "seed")
    temp_fds = []
    real_open, real_write = os.open, os.write

    def recording_open(path, *args):
        fd = real_open(path, *args)
        if os.path.basename(path).startswith(".tmp-"):
            temp_fds.append(fd)
        return fd

    def failing_write(fd, data):
        if fd in temp_fds:
            raise OSError(errno.ENOSPC, "no space left")
        return real_write(fd, data)

    monkeypatch.setattr(registry.os, "open", recording_open)
    monkeypatch.setattr(registry.os, "write", failing_write)
    with pytest.raises(OSError):
        reg.submit_drawing(K5_ONE, "lost")
    monkeypatch.undo()
    assert len(temp_fds) == 1 and _temp_files(reg) == []
    assert [r.n for r in reg.records()] == [3] and reg.fsck() == []


def test_fsck_sees_edits_behind_the_instance(reg):
    reg.submit_drawing(TRI, "seed")
    reg.submit_drawing(K5_ONE, "best")
    assert reg.fsck() == [] and reg.get("rect", 5).crossings == 1
    victim = reg.get("rect", 5).payload_path
    with open(victim) as fh:
        orig = fh.read()
    with open(victim, "w") as fh:
        fh.write(format_points(K5_CONVEX))
    assert any("recount 5" in p for p in reg.fsck())
    with open(victim, "w") as fh:
        fh.write(orig)
    assert reg.fsck() == []

    index_path = os.path.join(reg.path, "index.json")
    with open(index_path) as fh:
        index = json.load(fh)
    index["rect"]["5"]["crossings"] = 3
    with open(index_path, "w") as fh:
        json.dump(index, fh, indent=2)
    assert reg.get("rect", 5).crossings == 3
    assert any("stored crossings 3 != recount 1" in p for p in reg.fsck())
