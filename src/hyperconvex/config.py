"""Tolerance configuration shared by every numerical routine.

All geometric predicates in this package are tolerance-explicit: nothing is
compared with ``==`` on floats.  The three knobs below cover the distinct
failure modes (orthonormality drift, rank decisions, geometric residuals).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import SchemaError

ENV_TOL = "HYPERCONVEX_TOL"


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances.

    tau_orth : max deviation of a stored basis from exact orthonormality
    tau_rank : relative singular-value cutoff for rank decisions
    tau_geom : geometric residual tolerance (projection certificates,
               set membership, subspace equality via the gap)
    """

    tau_orth: float = 1e-9
    tau_rank: float = 1e-8
    tau_geom: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("tau_orth", "tau_rank", "tau_geom"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


_DEFAULTS = ToleranceConfig()


def default_tolerances() -> ToleranceConfig:
    """Default config, read on every call; HYPERCONVEX_TOL (a float)
    overrides tau_geom."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return _DEFAULTS
    try:
        return replace(_DEFAULTS, tau_geom=float(raw))
    except ValueError as exc:
        raise SchemaError(f"{ENV_TOL} must be a finite positive float, got {raw!r}") from exc


def resolve(tol: ToleranceConfig | None) -> ToleranceConfig:
    return tol if tol is not None else default_tolerances()
