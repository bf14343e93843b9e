"""Improvement-only store of the best known drawing per (kind, n).

Layout on disk: one payload file per cardinality under a directory per kind
("rect/n2643.pts", "pseudo/n2205.sig") plus a single JSON index with the
metadata.  Every write re-verifies the payload from scratch and lands via a
temp file and an atomic rename, so readers always see a consistent registry
and interrupted runs lose nothing.  Records can be merged from another
registry directory by file copy plus ``import_dir``.

A ``Registry`` keeps the parsed index and its records, keyed by the exact
bytes of ``index.json``: every read re-reads the file and parses it again
only when its bytes differ from the ones the records were built from, as
after a write by another ``Registry`` on the same directory.  An accepted
submit updates the records in place and writes the index with json's C
encoder, so it costs parse, certify and a few list operations.
"""

import json
import os
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from typing import Optional

from .doubling import (
    BoundValue,
    VerificationError,
    normalize_kind,
    pseudo_bound,
    rect_bound,
)
from .geometry import DegenerateError, count_crossings, count_crossings_brute
from .io import ParseError, format_drawing, load_drawing, parse_drawing
from .signatures import count_crossings_sig_brute, is_realizable

INDEX_NAME = "index.json"
_SUFFIX = {"rect": ".pts", "pseudo": ".sig"}


@dataclass(frozen=True)
class DrawingRecord:
    """Metadata for one stored drawing; the payload is the proof."""

    kind: str
    n: int
    crossings: int
    bound: BoundValue
    payload_path: str
    provenance: str = ""
    created_at: str = ""


@dataclass(frozen=True)
class SubmitResult:
    accepted: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.accepted

    def __str__(self):
        return "accepted" if self.accepted else f"rejected({self.reason})"


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def bound_for(kind, n, crossings):
    """The derived-constant bound of a record's kind/cardinality/count."""
    return rect_bound(n, crossings) if kind == "rect" else pseudo_bound(n, crossings)


_WRONG_KIND = {
    "rect": "rectilinear payload does not hold a point set",
    "pseudo": "pseudolinear payload does not hold a signature",
}


def count_drawing_brute(drawing):
    """Crossing count of a point set or a signature, by the brute-force oracle of its kind."""
    if drawing.kind == "pseudo":
        return count_crossings_sig_brute(drawing)
    return count_crossings_brute(drawing)


def _certify(drawing, kind):
    """(n, crossings) of a drawing that certifies the kind.

    Raises DegenerateError/ValueError for drawings of the wrong type or that
    fail general position or realizability.
    """
    if drawing.kind != kind:
        raise ValueError(_WRONG_KIND[kind])
    if kind == "pseudo" and not is_realizable(drawing):
        raise ValueError("signature is not realizable")
    return drawing.n, count_crossings(drawing)


def verify_payload(path, kind):
    """Parse and fully certify a payload: (drawing, n, crossings).

    Raises ParseError for unreadable files and DegenerateError/ValueError for
    drawings that fail general position or realizability.
    """
    drawing = load_drawing(path)
    return (drawing, *_certify(drawing, normalize_kind(kind)))


def verify(path, kind, brute_limit=12):
    """Certification report for a payload file.

    Counts with the fast counter, recounts with the brute counter when n is
    within brute_limit, and recomputes the bound; every value is exact.
    """
    drawing, n, crossings = verify_payload(path, kind)
    kind = normalize_kind(kind)
    report = {
        "kind": kind,
        "n": n,
        "crossings": crossings,
        "bound": str(bound_for(kind, n, crossings)),
        "realizable": True,
    }
    if n <= brute_limit:
        brute = count_drawing_brute(drawing)
        report["brute_crossings"] = brute
        if brute != crossings:
            raise VerificationError(
                f"fast count {crossings} != brute count {brute}"
            )
    return report


class Registry:
    """A registry directory, read through its index's bytes-keyed records.

    ``_raw`` holds the bytes of ``index.json`` that ``_index`` was parsed
    from (None for no file, False when the views match no file, so that the
    next read parses it), and per kind ``_by_n`` maps n to its record
    and ``_ranked`` lists ((bound value, n), record) by that key, so each
    bound's Fraction is built once.
    """

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(os.path.join(self.path, "rect"), exist_ok=True)
        os.makedirs(os.path.join(self.path, "pseudo"), exist_ok=True)
        self._raw = False

    # -- index ---------------------------------------------------------------

    def _index_path(self):
        return os.path.join(self.path, INDEX_NAME)

    def _load_index(self):
        """The parsed index, parsed again only when the file's bytes changed."""
        try:
            with open(self._index_path(), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raw = None
        if raw != self._raw:
            self._build(raw, _parse_index(raw))
        return self._index

    def _build(self, raw, index):
        self._raw = raw
        self._index = index
        self._by_n = {"rect": {}, "pseudo": {}}
        self._ranked = {"rect": [], "pseudo": []}
        for kind in ("rect", "pseudo"):
            for key, meta in index.get(kind, {}).items():
                self._add(kind, int(key), meta)

    def _add(self, kind, n, meta):
        """Put the record of (kind, n) described by meta into the views,
        in place of the one stored before."""
        ranked = self._ranked[kind]
        old = self._by_n[kind].get(n)
        if old is not None:
            del ranked[bisect_left(ranked, (old.bound.value, n), key=_RANK)]
        rec = self._by_n[kind][n] = DrawingRecord(
            kind=kind,
            n=n,
            crossings=int(meta["crossings"]),
            bound=BoundValue.parse(meta["bound"], kind),
            payload_path=os.path.join(self.path, meta["payload"]),
            provenance=meta.get("provenance", ""),
            created_at=meta.get("created_at", ""),
        )
        rank = (rec.bound.value, n)
        ranked.insert(bisect_left(ranked, rank, key=_RANK), (rank, rec))

    def records(self, kind=None):
        """All stored records, sorted by (kind, n)."""
        self._load_index()
        kinds = [normalize_kind(kind)] if kind else ["rect", "pseudo"]
        out = []
        for k in kinds:
            by_n = self._by_n[k]
            out += map(by_n.__getitem__, sorted(by_n))
        return out

    def get(self, kind, n):
        """The stored record for (kind, n), or None."""
        self._load_index()
        return self._by_n[normalize_kind(kind)].get(n)

    # -- writes ---------------------------------------------------------------

    def submit(self, rec):
        """Verify a record's payload file and store it iff it strictly improves (kind, n).

        The payload must match the record's n and crossings, and its bound
        when the record carries one.
        """
        try:
            drawing = load_drawing(rec.payload_path)
        except (OSError, ParseError) as exc:
            return SubmitResult(False, f"payload unreadable: {exc}")
        return self._verify_and_store(
            normalize_kind(rec.kind), format_drawing(drawing).encode(), rec.provenance, rec.created_at, rec
        )

    def submit_drawing(self, drawing, provenance=""):
        """Verify an in-memory drawing and store it iff it strictly improves (kind, n)."""
        return self._verify_and_store(drawing.kind, format_drawing(drawing).encode(), provenance)

    def _verify_and_store(self, kind, payload, provenance, created_at="", claimed=None):
        """Certify the payload bytes once and store exactly those bytes iff they improve.

        claimed, when given, is a record whose n, crossings and bound (if
        set) the payload must reproduce.
        """
        try:
            drawing = parse_drawing(payload)
        except ParseError as exc:
            return SubmitResult(False, f"payload unreadable: {exc}")
        try:
            n, crossings = _certify(drawing, kind)
        except (DegenerateError, ValueError) as exc:
            return SubmitResult(False, str(exc))
        if claimed is not None:
            if n != claimed.n:
                return SubmitResult(False, f"vertex count mismatch: payload has {n}, record says {claimed.n}")
            if crossings != claimed.crossings:
                return SubmitResult(
                    False, f"count mismatch: payload has {crossings}, record says {claimed.crossings}"
                )
        bound = bound_for(kind, n, crossings)
        if claimed is not None and claimed.bound is not None and claimed.bound != bound:
            return SubmitResult(False, f"bound mismatch: recomputed {bound}")
        index = self._load_index()
        stored = self._by_n[kind].get(n)
        if stored is not None and crossings >= stored.crossings:
            return SubmitResult(False, "not an improvement")
        relpath = os.path.join(kind, f"n{n}{_SUFFIX[kind]}")
        _atomic_write(os.path.join(self.path, relpath), payload)
        meta = index.setdefault(kind, {})[str(n)] = {
            "crossings": crossings,
            "bound": str(bound),
            "payload": relpath,
            "provenance": provenance,
            "created_at": created_at or _now(),
        }
        raw = (json.dumps(index, sort_keys=True) + "\n").encode()
        try:
            _atomic_write(self._index_path(), raw)
        except BaseException:
            self._raw = False
            raise
        self._raw = raw
        self._add(kind, n, meta)
        return SubmitResult(True)

    # -- queries ----------------------------------------------------------------

    def best_bound(self, kind):
        """(n, bound) of the record minimizing the bound, over every stored n."""
        recs = self.best_records(kind, 1)
        if not recs:
            raise LookupError(f"no {normalize_kind(kind)} records in the registry")
        return recs[0].n, recs[0].bound

    def best_records(self, kind, top_k=None):
        """Up to top_k records of the kind (all when None), best bound first:
        by (bound, n)."""
        self._load_index()
        return [rec for _, rec in self._ranked[normalize_kind(kind)][:top_k]]

    def fsck(self):
        """Re-verify every record; returns a list of problem strings."""
        problems = []
        index = self._load_index()
        for kind in ("rect", "pseudo"):
            for key, meta in sorted(index.get(kind, {}).items(), key=lambda kv: int(kv[0])):
                label = f"{kind}/n{key}"
                path = os.path.join(self.path, meta["payload"])
                try:
                    _, n, crossings = verify_payload(path, kind)
                except Exception as exc:
                    problems.append(f"{label}: {exc}")
                    continue
                if n != int(key):
                    problems.append(f"{label}: payload has n={n}")
                if crossings != int(meta["crossings"]):
                    problems.append(
                        f"{label}: stored crossings {meta['crossings']} != recount {crossings}"
                    )
                    continue
                bound = bound_for(kind, n, crossings)
                if str(bound) != meta["bound"]:
                    problems.append(f"{label}: stored bound {meta['bound']} != recomputed {bound}")
            payload_dir = os.path.join(self.path, kind)
            known = {meta["payload"] for meta in index.get(kind, {}).values()}
            for name in sorted(os.listdir(payload_dir)):
                rel = os.path.join(kind, name)
                if rel not in known:
                    problems.append(f"{rel}: orphan payload (not in the index)")
        return problems

    def import_dir(self, other_path):
        """Merge another registry directory; returns (kind, n, result) rows."""
        other = Registry(other_path)
        results = []
        for rec in other.records():
            res = self.submit(
                DrawingRecord(
                    rec.kind,
                    rec.n,
                    rec.crossings,
                    None,
                    rec.payload_path,
                    rec.provenance or f"imported from {other_path}",
                    rec.created_at,
                )
            )
            results.append((rec.kind, rec.n, res))
        return results


_RANK = itemgetter(0)  # the (bound value, n) of a ranked entry


def _parse_index(raw):
    """The index held in the bytes raw; the empty index when raw is None
    (no index file)."""
    if raw is None:
        return {"rect": {}, "pseudo": {}}
    return json.loads(raw)


def _atomic_write(path, blob):
    """Write blob to path through a temp file in the same directory, named
    for this process and path, and an atomic rename; the temp file is
    removed when any step fails."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{name}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(blob)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise

