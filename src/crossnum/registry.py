"""Improvement-only store of the best known drawing per (kind, n).

Layout on disk: one payload file per cardinality under a directory per kind
("rect/n2643.pts", "pseudo/n2205.sig") plus a single JSON index with the
metadata.  Every write re-verifies the payload from scratch and lands via a
temp file and an atomic rename, so readers always see a consistent registry
and interrupted runs lose nothing.  Records can be merged from another
registry directory by file copy plus ``import_dir``.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
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
    """A registry directory; all reads hit the on-disk index directly."""

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(os.path.join(self.path, "rect"), exist_ok=True)
        os.makedirs(os.path.join(self.path, "pseudo"), exist_ok=True)

    # -- index ---------------------------------------------------------------

    def _index_path(self):
        return os.path.join(self.path, INDEX_NAME)

    def _load_index(self):
        try:
            with open(self._index_path(), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return {"rect": {}, "pseudo": {}}

    def _store_index(self, index):
        _atomic_write(
            self._index_path(),
            (json.dumps(index, indent=2, sort_keys=True) + "\n").encode(),
        )

    def records(self, kind=None):
        """All stored records, sorted by (kind, n)."""
        index = self._load_index()
        kinds = [normalize_kind(kind)] if kind else ["rect", "pseudo"]
        out = []
        for k in kinds:
            for key in sorted(index.get(k, {}), key=int):
                out.append(self._record_from(index, k, int(key)))
        return out

    def get(self, kind, n):
        """The stored record for (kind, n), or None."""
        index = self._load_index()
        if str(n) not in index.get(normalize_kind(kind), {}):
            return None
        return self._record_from(index, normalize_kind(kind), n)

    def _record_from(self, index, kind, n):
        meta = index[kind][str(n)]
        return DrawingRecord(
            kind=kind,
            n=n,
            crossings=int(meta["crossings"]),
            bound=BoundValue.parse(meta["bound"], kind),
            payload_path=os.path.join(self.path, meta["payload"]),
            provenance=meta.get("provenance", ""),
            created_at=meta.get("created_at", ""),
        )

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
        stored = index.get(kind, {}).get(str(n))
        if stored is not None and crossings >= int(stored["crossings"]):
            return SubmitResult(False, "not an improvement")
        relpath = os.path.join(kind, f"n{n}{_SUFFIX[kind]}")
        _atomic_write(os.path.join(self.path, relpath), payload)
        index.setdefault(kind, {})[str(n)] = {
            "crossings": crossings,
            "bound": str(bound),
            "payload": relpath,
            "provenance": provenance,
            "created_at": created_at or _now(),
        }
        self._store_index(index)
        return SubmitResult(True)

    # -- queries ----------------------------------------------------------------

    def best_bound(self, kind):
        """(n, bound) of the record minimizing the bound, over every stored n."""
        recs = self.records(kind)
        if not recs:
            raise LookupError(f"no {normalize_kind(kind)} records in the registry")
        best = min(recs, key=lambda r: (r.bound.value, r.n))
        return best.n, best.bound

    def best_records(self, kind, top_k=None):
        """Up to top_k records of the kind (all when None), best bound first."""
        recs = sorted(self.records(kind), key=lambda r: (r.bound.value, r.n))
        return recs[:top_k]

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


def _atomic_write(path, blob):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

