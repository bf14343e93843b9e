"""SVG export: rendered point drawings preserve the exact crossing count,
huge coordinates stay inside the fixed viewport, and wiring diagrams swap
every pair of wires exactly once."""

import random
import xml.etree.ElementTree as ET
from itertools import combinations

import pytest

from crossnum.geometry import PointSet, count_crossings
from crossnum.io import load_points
from crossnum.signatures import Signature, convex_signature, count_crossings_sig, signature_of
from crossnum.svg import VIEW_H, VIEW_W, export_svg, wiring_diagram
from crossnum.doubling import VerificationError, double_signature
from crossnum.halving import halving_matching_sig

from conftest import rand_general

NS = "{http://www.w3.org/2000/svg}"


def _read_svg(path):
    root = ET.fromstring(open(path, encoding="utf-8").read())
    return (
        root,
        root.findall(f"{NS}line"),
        root.findall(f"{NS}circle"),
        root.findall(f"{NS}text"),
        root.findall(f"{NS}polyline"),
    )


def _seg_cross(a, b, c, d):
    def o(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 1e-9) - (v < -1e-9)

    return (
        o(a, b, c) != o(a, b, d)
        and o(a, b, c) != 0
        and o(a, b, d) != 0
        and o(c, d, a) != o(c, d, b)
        and o(c, d, a) != 0
        and o(c, d, b) != 0
    )


def _visible_crossings(lines):
    segs = [
        (
            (float(el.get("x1")), float(el.get("y1"))),
            (float(el.get("x2")), float(el.get("y2"))),
        )
        for el in lines
    ]
    return sum(
        1
        for (a, b), (c, d) in combinations(segs, 2)
        if len({a, b, c, d}) == 4 and _seg_cross(a, b, c, d)
    )


def test_triangle_svg(tmp_path):
    out = tmp_path / "t.svg"
    export_svg(PointSet(((0, 0), (1, 0), (0, 1))), out)
    _, lines, circles, texts, polys = _read_svg(out)
    assert len(circles) == 3 and len(lines) == 3 and not polys
    assert any("n = 3, crossings = 0" in (t.text or "") for t in texts)


def test_convex5_visible_crossings(tmp_path):
    out = tmp_path / "c5.svg"
    conv5 = PointSet(((0, 0), (10, 1), (13, 9), (5, 14), (-3, 8)))
    export_svg(conv5, out)
    _, lines, circles, texts, _ = _read_svg(out)
    assert len(circles) == 5 and len(lines) == 10
    assert any("n = 5, crossings = 5" in (t.text or "") for t in texts)
    assert _visible_crossings(lines) == 5


def test_random_points_render_exact_count(tmp_path):
    rng = random.Random(7)
    out = tmp_path / "r.svg"
    for trial in range(12):
        S = rand_general(rng, rng.randint(4, 9))
        export_svg(S, out)
        _, lines, _, texts, _ = _read_svg(out)
        want = count_crossings(S)
        assert _visible_crossings(lines) == want, trial
        assert any(f"crossings = {want}" in (t.text or "") for t in texts)


def test_huge_coordinates_stay_in_viewport(tmp_path):
    from importlib import resources

    big = load_points(str(resources.files("crossnum.data") / "k2643.txt"))
    sub = PointSet(tuple(big[i] for i in range(0, 2643, 240)))
    out = tmp_path / "big.svg"
    export_svg(sub, out)
    _, _, circles, _, _ = _read_svg(out)
    assert len(circles) == len(sub)
    for el in circles:
        x, y = float(el.get("cx")), float(el.get("cy"))
        assert 0 <= x <= VIEW_W and 0 <= y <= VIEW_H


def test_convex5_wiring_svg(tmp_path):
    out = tmp_path / "w5.svg"
    D5 = convex_signature(5)
    export_svg(D5, out)
    _, lines, circles, texts, polys = _read_svg(out)
    assert len(polys) == 5 and not lines and not circles
    assert any("n = 5, crossings = 5" in (t.text or "") for t in texts)
    _, events = wiring_diagram(D5)
    assert sorted(tuple(sorted(e)) for e in events) == list(combinations(range(5), 2))


def test_wiring_diagrams_random(tmp_path):
    rng = random.Random(8)
    out = tmp_path / "w.svg"
    for trial in range(18):
        n = rng.randint(3, 10)
        D = signature_of(rand_general(rng, n))
        start, events = wiring_diagram(D)
        assert sorted(set(start)) == list(range(n))
        assert sorted(tuple(sorted(e)) for e in events) == list(
            combinations(range(n), 2)
        )
        # every swap must touch adjacent wires, and the sweep ends reversed
        order = list(start)
        for x, y in events:
            tx, ty = order.index(x), order.index(y)
            assert ty == tx + 1, (trial, x, y)
            order[tx], order[ty] = y, x
        assert order == list(reversed(start))
        if trial % 6 == 0:
            export_svg(D, out)
            _, _, _, texts, polys = _read_svg(out)
            assert len(polys) == n
            c = count_crossings_sig(D)
            assert any(f"crossings = {c}" in (t.text or "") for t in texts)


def test_wiring_diagram_of_doubled_signature(tmp_path):
    D = signature_of(PointSet(((0, 0), (10, 0), (5, 9), (5, 3), (6, 4))))
    M = halving_matching_sig(D)
    assert M
    D2, _rep = double_signature(D, M)
    start, events = wiring_diagram(D2)
    assert len(events) == D2.n * (D2.n - 1) // 2
    export_svg(D2, tmp_path / "d.svg")


def test_wiring_diagram_rejects_cyclic_4_vertex_patterns():
    for bits in (b"\x05", b"\x0a"):
        with pytest.raises(VerificationError):
            wiring_diagram(Signature(4, bits))


def test_export_dispatch_type_error(tmp_path):
    with pytest.raises(TypeError):
        export_svg([(0, 0), (1, 1)], tmp_path / "x.svg")


def test_best_known_75_point_drawing(tmp_path):
    from importlib import resources

    path = resources.files("crossnum.data") / "k75.txt"
    if not path.is_file():
        pytest.skip("no bundled 75-point drawing")
    S = load_points(str(path))
    out = tmp_path / "k75.svg"
    export_svg(S, out)
    _, _, _, texts, _ = _read_svg(out)
    assert any("crossings = 450492" in (t.text or "") for t in texts)
