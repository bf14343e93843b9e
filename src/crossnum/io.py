"""Reading and writing point sets, signatures, and halving-matching dumps.

Point sets (text): first line n, then n lines "x y" with signed decimal
integers; blank lines and lines starting with '#' are ignored.  A tolerant
importer also accepts LaTeX itemize listings of the form
"\\item $p_{7}:=(-365,423)$," by stripping the markup and pairing the
remaining integers.

Signatures (text): first line n, then a stream of '+'/'-' characters, one per
vertex triple in lexicographic order, with arbitrary line breaks.
Signatures (binary): 8-byte magic "PSLSIG01", n as an 8-byte little-endian
integer, then the sign bits packed least-significant-bit first ('+' = 1),
zero-padded to a byte boundary.

Matching dumps (text): one line per vertex, "v : partner dx dy" for
geometric lines ("-" when the line passes through v alone) or "v : slot g g'"
for signature lines.
"""

import re
from math import comb

from .geometry import PointSet
from .halving import HalvingLine, HalvingMatching, RotationSlot, slot_partner
from .signatures import Signature

SIG_MAGIC = b"PSLSIG01"

_INT = re.compile(r"-?\d+$")
_WORD = re.compile(r"[A-Za-z]+$")
_LABEL = re.compile(r"[A-Za-z]+_\{?\d+\}?\s*:?=?")
_NOT_SIGN = re.compile(r"[^+-]")


class ParseError(ValueError):
    """Malformed drawing file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _effective_lines(text):
    """(line_number, stripped_content) for every non-blank non-comment line."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            out.append((no, s))
    return out


def _parse_latex_points(text):
    pts = []
    for no, s in _effective_lines(text):
        s = _LABEL.sub(" ", s.replace("$", " ").replace("\\", " "))
        for ch in "(),;{}":
            s = s.replace(ch, " ")
        nums = []
        for tok in s.split():
            if _INT.match(tok):
                nums.append(int(tok))
            elif not _WORD.match(tok):
                raise ParseError(f"unrecognized token {tok!r}", no)
        if len(nums) % 2:
            raise ParseError("odd number of coordinates", no)
        pts.extend(zip(nums[::2], nums[1::2]))
    if len(pts) < 3:
        raise ParseError("no point data found")
    return PointSet(tuple(pts))


def parse_points(text):
    """Parse a point-set file body (plain or LaTeX itemize style)."""
    lines = _effective_lines(text)
    if not lines:
        raise ParseError("empty point file")
    no, head = lines[0]
    if not _INT.match(head):
        return _parse_latex_points(text)
    n = int(head)
    if n < 0:
        raise ParseError("negative point count", no)
    pts = []
    for no, s in lines[1:]:
        toks = s.split()
        if len(toks) != 2 or not all(_INT.match(t) for t in toks):
            raise ParseError(f"expected two integers, got {s!r}", no)
        pts.append((int(toks[0]), int(toks[1])))
        if len(pts) > n:
            raise ParseError(f"more than the declared {n} points", no)
    if len(pts) != n:
        raise ParseError(f"expected {n} points, found {len(pts)}")
    return PointSet(tuple(pts))


def format_points(S):
    return "\n".join([str(S.n)] + [f"{x} {y}" for x, y in S]) + "\n"


def parse_signature_text(text):
    """Parse the textual '+'/'-' stream form of a signature."""
    lines = _effective_lines(text)
    if not lines:
        raise ParseError("empty signature file")
    no, head = lines[0]
    if not _INT.match(head):
        raise ParseError(f"expected the vertex count, got {head!r}", no)
    n = int(head)
    if n < 3:
        raise ParseError("signature needs at least 3 vertices", no)
    want = comb(n, 3)
    chunks = []
    r = 0
    for no, s in lines[1:]:
        body = "".join(s.split())
        bad = _NOT_SIGN.search(body)  # reported when no later than the first excess sign
        if bad and bad.start() <= want - r:
            raise ParseError(f"expected '+' or '-', got {bad.group()!r}", no)
        if len(body) > want - r:
            raise ParseError(f"more than C({n},3) = {want} signs", no)
        chunks.append(body)
        r += len(body)
    if r != want:
        raise ParseError(f"expected C({n},3) = {want} signs, found {r}")
    return Signature.from_signs(n, "".join(chunks))


def format_signature_text(D, width=78):
    s = D.signs()
    body = "\n".join(s[i : i + width] for i in range(0, len(s), width))
    return f"{D.n}\n{body}\n"


def signature_to_binary(D):
    return SIG_MAGIC + D.n.to_bytes(8, "little") + D.to_bytes()


def signature_from_binary(blob):
    if blob[:8] != SIG_MAGIC:
        raise ParseError("bad signature magic")
    if len(blob) < 16:
        raise ParseError("truncated signature header")
    n = int.from_bytes(blob[8:16], "little")
    bits = blob[16:]
    try:
        D = Signature(n, bits)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    used = comb(n, 3) % 8  # sign bits in the last byte; the rest are padding
    if used and bits[-1] >> used:
        raise ParseError("nonzero padding bits")
    return D


def parse_signature(data):
    """Parse a signature from text or binary bytes."""
    if isinstance(data, (bytes, bytearray)):
        if data[:8] == SIG_MAGIC:
            return signature_from_binary(bytes(data))
        data = data.decode("utf-8")
    return parse_signature_text(data)


def parse_drawing(data):
    """Parse bytes or text as either a point set or a signature (sniffed)."""
    if isinstance(data, (bytes, bytearray)):
        if data[:8] == SIG_MAGIC:
            return signature_from_binary(bytes(data))
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not a drawing file: {exc}") from None
    lines = _effective_lines(data)
    if not lines:
        raise ParseError("empty drawing file")
    if _INT.match(lines[0][1]) and len(lines) > 1:
        body = lines[1][1].split()[0]
        if set(body) <= set("+-"):
            return parse_signature_text(data)
    return parse_points(data)


def load_points(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


def save_points(S, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_points(S))


def load_signature(path):
    with open(path, "rb") as fh:
        return parse_signature(fh.read())


def save_signature(D, path, binary=False):
    if binary:
        with open(path, "wb") as fh:
            fh.write(signature_to_binary(D))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_signature_text(D))


def load_drawing(path):
    """Load a point set or signature, whichever the file contains."""
    with open(path, "rb") as fh:
        return parse_drawing(fh.read())


def format_drawing(drawing):
    """Text form of a point set or a signature, as parse_drawing reads it back."""
    if isinstance(drawing, Signature):
        return format_signature_text(drawing)
    return format_points(drawing)


def save_drawing(drawing, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_drawing(drawing))


def format_matching(M):
    """Serialize a halving matching, one line per vertex."""
    out = []
    for v in sorted(M.assignments):
        line = M.assignments[v]
        d = line.direction
        if isinstance(d[0], RotationSlot):
            out.append(f"{v} : slot {d[0].gap_position} {d[1].gap_position}")
        else:
            partner = "-" if line.partner is None else str(line.partner)
            out.append(f"{v} : {partner} {d[0]} {d[1]}")
    return "\n".join(out) + "\n"


def parse_matching(text, D=None):
    """Parse a matching dump; pass the signature to recover even-n partners."""
    assignments = {}
    for no, s in _effective_lines(text):
        toks = s.split()
        if len(toks) != 5 or toks[1] != ":" or not _INT.match(toks[0]):
            raise ParseError(f"expected 'v : partner dx dy' or 'v : slot g g2', got {s!r}", no)
        v = int(toks[0])
        if toks[2] == "slot":
            if not (_INT.match(toks[3]) and _INT.match(toks[4])):
                raise ParseError("slot positions must be integers", no)
            line = HalvingLine(
                v, None, (RotationSlot(v, int(toks[3])), RotationSlot(v, int(toks[4])))
            )
            if D is not None and D.n % 2 == 0:
                line = HalvingLine(v, slot_partner(D, line), line.direction)
        else:
            if not all(_INT.match(t) for t in toks[2:] if t != "-"):
                raise ParseError("partner and direction must be integers", no)
            partner = None if toks[2] == "-" else int(toks[2])
            line = HalvingLine(v, partner, (int(toks[3]), int(toks[4])))
        if v in assignments:
            raise ParseError(f"duplicate vertex {v}", no)
        assignments[v] = line
    if not assignments:
        raise ParseError("empty matching dump")
    return HalvingMatching(assignments)
