"""Enclosing intervals for estimated quantities.

Every estimator in this package returns an Interval [lo, hi] guaranteed to
contain the true value; certified=False marks results whose width exceeded
the request because an evaluation budget ran out, never a violated enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    certified: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi + 1e-15:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            object.__setattr__(self, "lo", self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def overlaps(self, other: "Interval", slack: float = 0.0) -> bool:
        return self.lo <= other.hi + slack and other.lo <= self.hi + slack
