"""User-composable constraint surface (SURVEY.md §2.10).

The reference's extension surface is a chain of pipeline-step methods
(`step1..step7` on `EndToEndPipeline`, `end_to_end_prediction.py:216-535`).
Here the composable unit is a :class:`Tolerance`: a declarative bound on
any per-(partition, column) statistic the suite's fused scan already
computes (count, null_rate, distinct_est, vmin/vmax, mean, std,
p50/p95/p99). ``SuiteConfig.stat_tolerances`` evaluates each one against
the merged stats table — driver-side, tiny — and every (tolerance,
partition, column) becomes a verdict row, so adding a constraint never
adds a scan.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerance:
    """Bounds a per-partition statistic must satisfy (inclusive).

    ``metric``: a column of the suite's stats table. ``column``: restrict
    to rows of one input column (None = every column). NaN / missing
    values FAIL the tolerance — an absent statistic is not evidence of
    compliance."""

    metric: str
    min_value: float | None = None
    max_value: float | None = None
    column: str | None = None

    def passes(self, value: float | None) -> bool:
        if value is None or value != value:  # NaN fails per the contract
            return False
        if self.min_value is not None and value < self.min_value:
            return False
        if self.max_value is not None and value > self.max_value:
            return False
        return True
