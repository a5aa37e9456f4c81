"""Summary statistics and failure accounting shared by every workload."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence

#: Percentiles a tail readout may use, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> Optional[float]:
    """Highest candidate percentile with ``MIN_BEYOND`` samples past it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it; the median is then the only timing worth reporting.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        # The tolerance absorbs float error in 100 - 99.9.
        if samples * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the qualifying tail percentile, and the sample count."""
    summary: Dict[str, object] = {
        "p50": percentile(values, 50.0),
        "samples": len(values),
    }
    pct = tail_percentile(len(values))
    if pct is not None and pct > 50.0:
        summary["tail_pct"] = pct
        summary["tail"] = percentile(values, pct)
    return summary


class ErrorLedger:
    """Operations attempted against operations failed, with reasons.

    Every workload counts its operations here — requests, packs,
    client profiles, shard packs — and charges each failure (a
    non-200 response, a quarantined line, a degraded shard, a failed
    validation) with a short reason, so ``error_rate`` always has the
    attempted count as its base.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.failed += count
        self.reasons[reason] += count

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.error_rate,
            "reasons": dict(sorted(self.reasons.items())),
        }
