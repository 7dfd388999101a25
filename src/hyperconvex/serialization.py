"""JSON documents for convex sets.

One document per set, {"type": t, "ambient_dim": n, ...}, matrices
row-major.  One table, _TYPES, gives each type t its set class and its
fields in the order the class takes them, each with its loader: a
polytope's "points" are a nonempty list of rows, a flat's "base" a vector,
and a "basis" a list of rows, orthonormalized on load (an adjustment beyond
tau_orth is reported on stderr).  parse_set and serialize_set read only the
table.  Parsing is idempotent: parse(serialize(parse(doc))) == parse(doc)
exactly, as an already-orthonormal basis is kept bit for bit.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .config import ToleranceConfig
from .errors import SchemaError
from .sets import ConvexSet, Flat, Polytope, Subspace


def _numbers(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field '{field}' holds non-numeric entries") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"field '{field}' holds non-finite numbers")
    return arr


def _as_matrix(obj, n: int, field: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"field '{field}' must be a list of {n}-vectors")
    if not obj:
        raise SchemaError(f"field '{field}' must be nonempty")
    arr = _numbers(obj, field)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise SchemaError(f"field '{field}' must be rows of length {n}")
    return arr


def _as_vector(obj, n: int, field: str) -> np.ndarray:
    arr = _numbers(obj, field)
    if arr.shape != (n,):
        raise SchemaError(f"field '{field}' must be a vector of length {n}")
    return arr


def _load_basis(obj, n: int, field: str) -> np.ndarray:
    if isinstance(obj, list) and not obj:
        return np.zeros((0, n))
    rows = _as_matrix(obj, n, field)
    if rows.shape[0] > n:
        raise SchemaError(f"field '{field}' has more rows than ambient dimensions")
    ortho: list[np.ndarray] = []
    for row in rows:  # Gram-Schmidt; a second pass keeps orthogonality at roundoff level
        v = row.copy()
        for q in ortho * 2:
            v -= (v @ q) * q
        nrm = float(np.linalg.norm(v))
        if nrm <= 1e-10 * max(1.0, float(np.linalg.norm(row))):
            raise SchemaError(f"field '{field}': basis rows are linearly dependent")
        ortho.append(v / nrm)
    adjustment = float(np.abs(np.array(ortho) - rows).max())
    if adjustment <= 1e-13:
        return rows
    if adjustment > ToleranceConfig().tau_orth:
        print(
            f"warning: '{field}' rows adjusted by {adjustment:.3g} during orthonormalization",
            file=sys.stderr,
        )
    return np.array(ortho)


# document type -> (set class, {field: loader(obj, n, field)}); the fields
# in the order the class takes them and the document lists them
_TYPES = {
    "polytope": (Polytope, {"points": _as_matrix}),
    "flat": (Flat, {"base": _as_vector, "basis": _load_basis}),
    "subspace": (Subspace, {"basis": _load_basis}),
}
_TYPE_OF = {cls: name for name, (cls, _) in _TYPES.items()}


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
    if kind not in tuple(_TYPES):  # a tuple, as a JSON list is unhashable
        raise SchemaError(f"field 'type' must be one of {tuple(_TYPES)}")
    n = doc.get("ambient_dim")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("field 'ambient_dim' must be a positive integer")
    cls, fields = _TYPES[kind]
    for field in fields:
        if field not in doc:
            raise SchemaError(f"field '{field}' is required for {kind}s")
    return cls(*(load(doc[field], n, field) for field, load in fields.items()))


def serialize_set(s: ConvexSet) -> dict:
    kind = _TYPE_OF[type(s)]
    fields = {field: getattr(s, field).tolist() for field in _TYPES[kind][1]}
    return {"type": kind, "ambient_dim": s.ambient_dim, **fields}


def dumps_set(s: ConvexSet) -> str:
    return json.dumps(serialize_set(s), sort_keys=True)
