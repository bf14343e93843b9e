"""Static SVG rendering of drawings.

Point sets become a straight-line drawing: every point and all C(n, 2)
segments, affinely scaled into a fixed viewport.  The scale factor and
every mapped coordinate are computed in exact rational arithmetic, so
inputs with very large integer coordinates land in the viewport without
overflow; precision is only dropped when the final decimal attribute
values are written.

Signatures become a wiring diagram of the allowable sequence: n wires,
one per vertex, crossing pairwise exactly once in an order consistent
with every triple sign.  The diagram is built combinatorially (no
realizing coordinates are involved) by a greedy sweep from one start:
``signatures._hull_order``, a hull vertex on top and the other wires in
the order in which it sees them.  An adjacent wire pair may swap only
when, for every third wire, that swap is the next event of the triple's
own three-crossing sub-diagram.  A fresh triple with top-to-bottom order
(u, v, w) swaps its top pair first exactly when sign(u, v, w) is
positive.  After construction the diagram is replayed and every triple
sign re-extracted and compared against the signature, so a written wiring
diagram is always a certified rendering.

Both renderings carry a caption with the vertex count and the exact
crossing count.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .doubling import VerificationError
from .geometry import PointSet, count_crossings
from .signatures import Signature, _hull_order, count_crossings_sig

VIEW_W = 840
VIEW_H = 640
MARGIN = 40
CAPTION_H = 48

WIRE_STEP = 22
WIRE_LANE = 26
WIRE_PAD = 70


def _fmt(q):
    """Decimal attribute text for an exact viewport coordinate."""
    return f"{float(q):.2f}"


def _scaled_points(S):
    """Map points into the drawing box with exact rational scaling."""
    xs = [p[0] for p in S]
    ys = [p[1] for p in S]
    lox, hix = min(xs), max(xs)
    loy, hiy = min(ys), max(ys)
    w = Fraction(hix - lox)
    h = Fraction(hiy - loy)
    avail_w = Fraction(VIEW_W - 2 * MARGIN)
    avail_h = Fraction(VIEW_H - CAPTION_H - 2 * MARGIN)
    scale = min(
        avail_w / w if w else avail_w,
        avail_h / h if h else avail_h,
    )
    off_x = MARGIN + (avail_w - w * scale) / 2
    off_y = MARGIN + (avail_h - h * scale) / 2
    out = []
    for x, y in S:
        px = off_x + (x - lox) * scale
        py = off_y + (hiy - y) * scale  # flip: SVG y grows downward
        out.append((px, py))
    return out


def _svg_header(width, height):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


def _caption(width, height, text):
    return (
        f'<text x="{width // 2}" y="{height - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{text}</text>\n'
    )


def _points_svg(S):
    n = len(S)
    cr = count_crossings(S)
    mapped = _scaled_points(S)
    parts = [_svg_header(VIEW_W, VIEW_H)]
    for i, j in combinations(range(n), 2):
        (x1, y1), (x2, y2) = mapped[i], mapped[j]
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#456" stroke-width="0.8"/>\n'
        )
    for x, y in mapped:
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="#c22"/>\n'
        )
    parts.append(_caption(VIEW_W, VIEW_H, f"n = {n}, crossings = {cr}"))
    parts.append("</svg>\n")
    return "".join(parts)


def _next_in_triple(sign, pos, done, x, y, z):
    """Whether swapping adjacent wires (x above y) is the next event of
    the triple {x, y, z}."""
    dxz = (min(x, z), max(x, z)) in done
    dyz = (min(y, z), max(y, z)) in done
    if not dxz and not dyz:
        if pos[z] < pos[x]:  # projected order (z, x, y): (x, y) is the bottom pair
            return sign(z, x, y) < 0
        return sign(x, y, z) > 0  # order (x, y, z): (x, y) is the top pair
    if dxz and dyz:
        return True  # only (x, y) remains
    # one done: the next event shares the triple's middle wire with it
    return dxz if pos[z] < pos[x] else dyz


def _greedy_sweep(D, start):
    """Run the sweep from one initial order; None when it deadlocks."""
    n = D.n
    order = list(start)
    pos = {w: t for t, w in enumerate(order)}
    done = set()
    events = []
    total = comb(n, 2)
    while len(events) < total:
        for t in range(n - 1):
            x, y = order[t], order[t + 1]
            if (min(x, y), max(x, y)) in done:
                continue
            if all(
                _next_in_triple(D.sign, pos, done, x, y, z)
                for z in range(n)
                if z != x and z != y
            ):
                events.append((x, y))
                done.add((min(x, y), max(x, y)))
                order[t], order[t + 1] = y, x
                pos[x], pos[y] = t + 1, t
                break
        else:
            return None
    return events


def _check_wiring(D, start, events):
    """Replay the diagram and re-extract every triple sign."""
    n = D.n
    pos = {w: t for t, w in enumerate(start)}
    seen = {}
    for x, y in events:
        for z in range(n):
            if z == x or z == y:
                continue
            key = tuple(sorted((x, y, z)))
            if key in seen:
                continue
            if pos[z] < pos[x]:
                seen[key] = D.sign(z, x, y) == -1
            else:
                seen[key] = D.sign(x, y, z) == 1
        pos[x], pos[y] = pos[y], pos[x]
    return len(seen) == comb(n, 3) and all(seen.values())


def wiring_diagram(D):
    """Initial wire order and left-to-right swap events for a signature.

    Each event is a pair (x, y): wire x, just above wire y, crosses
    below it.  Raises VerificationError if no certified diagram exists.
    """
    start = _hull_order(D)
    events = None if start is None else _greedy_sweep(D, start)
    if events is None or not _check_wiring(D, start, events):
        raise VerificationError("no consistent wiring diagram found")
    return start, events


def _signature_svg(D):
    n = D.n
    cr = count_crossings_sig(D)
    start, events = wiring_diagram(D)
    width = 2 * WIRE_PAD + (len(events) + 1) * WIRE_STEP
    height = 2 * MARGIN + (n - 1) * WIRE_LANE + CAPTION_H

    def lane_y(t):
        return MARGIN + t * WIRE_LANE

    # polyline vertices per wire: a diagonal jog at each of its events
    track = {w: t for t, w in enumerate(start)}
    paths = {w: [(WIRE_PAD, lane_y(track[w]))] for w in start}
    half = WIRE_STEP // 2 - 2
    for e, (x, y) in enumerate(events):
        ex = WIRE_PAD + (e + 1) * WIRE_STEP
        for w, new_t in ((x, track[y]), (y, track[x])):
            paths[w].append((ex - half, lane_y(track[w])))
            paths[w].append((ex + half, lane_y(new_t)))
        track[x], track[y] = track[y], track[x]
    right = width - WIRE_PAD
    for w in start:
        paths[w].append((right, lane_y(track[w])))

    parts = [_svg_header(width, height)]
    for t, w in enumerate(start):
        parts.append(
            f'<text x="{WIRE_PAD - 8}" y="{lane_y(t) + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{w}</text>\n'
        )
        pts = " ".join(f"{px},{py}" for px, py in paths[w])
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#456" '
            f'stroke-width="1.2"/>\n'
        )
        parts.append(
            f'<text x="{right + 8}" y="{lane_y(track[w]) + 4}" '
            f'font-family="sans-serif" font-size="12">{w}</text>\n'
        )
    parts.append(_caption(width, height, f"n = {n}, crossings = {cr}"))
    parts.append("</svg>\n")
    return "".join(parts)


def export_svg(drawing, out_path):
    """Write an SVG rendering of a point set or signature to out_path."""
    if isinstance(drawing, Signature):
        text = _signature_svg(drawing)
    elif isinstance(drawing, PointSet):
        text = _points_svg(drawing)
    else:
        raise TypeError(f"cannot render {type(drawing).__name__}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out_path
