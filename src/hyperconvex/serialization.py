"""JSON documents for convex sets.

One document per set: {"type": "polytope" | "flat" | "subspace",
"ambient_dim": n, ...} with "points" for polytopes and "base"/"basis" for
the linear kinds, matrices row-major.  Basis rows are orthonormalized on
load; an adjustment beyond tau_orth is reported on stderr.  Parsing is
idempotent: parse(serialize(parse(doc))) == parse(doc) exactly, because an
already-orthonormal basis is kept bit for bit.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .config import ToleranceConfig
from .errors import SchemaError
from .sets import ConvexSet, Flat, Polytope, Subspace

_TYPES = ("polytope", "flat", "subspace")


def _as_matrix(obj, n: int, field: str, *, allow_empty: bool) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"field '{field}' must be a list of {n}-vectors")
    if not obj:
        if allow_empty:
            return np.zeros((0, n))
        raise SchemaError(f"field '{field}' must be nonempty")
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field '{field}' holds non-numeric entries") from exc
    if arr.ndim != 2 or arr.shape[1] != n:
        raise SchemaError(f"field '{field}' must be rows of length {n}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"field '{field}' holds non-finite numbers")
    return arr


def _as_vector(obj, n: int, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field '{field}' holds non-numeric entries") from exc
    if arr.shape != (n,):
        raise SchemaError(f"field '{field}' must be a vector of length {n}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"field '{field}' holds non-finite numbers")
    return arr


def _orthonormalize(rows: np.ndarray, field: str) -> np.ndarray:
    out: list[np.ndarray] = []
    for row in rows:
        v = row.astype(float).copy()
        for _ in range(2):  # second pass keeps orthogonality at roundoff level
            for q in out:
                v -= (v @ q) * q
        nrm = float(np.linalg.norm(v))
        if nrm <= 1e-10 * max(1.0, float(np.linalg.norm(row))):
            raise SchemaError(f"field '{field}': basis rows are linearly dependent")
        out.append(v / nrm)
    return np.array(out)


def _load_basis(obj, n: int, field: str) -> np.ndarray:
    rows = _as_matrix(obj, n, field, allow_empty=True)
    if rows.shape[0] == 0:
        return rows
    if rows.shape[0] > n:
        raise SchemaError(f"field '{field}' has more rows than ambient dimensions")
    ortho = _orthonormalize(rows, field)
    adjustment = float(np.abs(ortho - rows).max())
    if adjustment <= 1e-13:
        return rows
    if adjustment > ToleranceConfig().tau_orth:
        print(
            f"warning: '{field}' rows adjusted by {adjustment:.3g} during orthonormalization",
            file=sys.stderr,
        )
    return ortho


def parse_set(doc) -> ConvexSet:
    """Build a ConvexSet from a JSON string or already-decoded dict."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("set document must be a JSON object")
    kind = doc.get("type")
    if kind not in _TYPES:
        raise SchemaError(f"field 'type' must be one of {_TYPES}")
    n = doc.get("ambient_dim")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("field 'ambient_dim' must be a positive integer")
    if kind == "polytope":
        if "points" not in doc:
            raise SchemaError("field 'points' is required for polytopes")
        return Polytope(_as_matrix(doc["points"], n, "points", allow_empty=False))
    if kind == "subspace":
        if "basis" not in doc:
            raise SchemaError("field 'basis' is required for subspaces")
        return Subspace(_load_basis(doc["basis"], n, "basis"))
    if "base" not in doc or "basis" not in doc:
        raise SchemaError("fields 'base' and 'basis' are required for flats")
    return Flat(_as_vector(doc["base"], n, "base"), _load_basis(doc["basis"], n, "basis"))


def serialize_set(s: ConvexSet) -> dict:
    if isinstance(s, Polytope):
        return {
            "type": "polytope",
            "ambient_dim": s.ambient_dim,
            "points": s.points.tolist(),
        }
    if isinstance(s, Subspace):
        return {
            "type": "subspace",
            "ambient_dim": s.ambient_dim,
            "basis": s.basis.tolist(),
        }
    return {
        "type": "flat",
        "ambient_dim": s.ambient_dim,
        "base": s.base.tolist(),
        "basis": s.basis.tolist(),
    }


def dumps_set(s: ConvexSet) -> str:
    return json.dumps(serialize_set(s), sort_keys=True)
