"""Structured results for randomized verification runs."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class Report:
    """Outcome of a randomized suite: counts, failures, and bookkeeping.

    failures holds one dict per violated check with the offending inputs,
    the measured residual, and the threshold it broke.  inconclusive counts
    trials whose estimator gave up inside its budget (wide but still valid
    enclosures); those are not failures.  Two runs with the same arguments
    produce identical reports except for runtime_ms.
    """

    suite: str
    trials: int
    failures: list = field(default_factory=list)
    inconclusive: int = 0
    seed: int = 0
    runtime_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """The fields in their order, then passed; failures are copied."""
        return {**asdict(self), "passed": self.passed}
