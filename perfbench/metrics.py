"""Arithmetic the benchmark reports: percentiles, span self times, failure counts.

Kept free of asmfit imports so the self-tests in perfbench/tests can check
it on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# A tail percentile is only reported as supported when at least this many
# samples lie beyond it.
MIN_BEYOND = 10

# A fit whose mean landmark error exceeds this many pixels counts as failed
# (the E_ave bound of acceptance criterion 8).
MAX_FIT_ERROR_PX = 3.0


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the p-th percentile of n samples.

    Percentiles interpolate linearly between order statistics (numpy's
    default), so the p-th percentile sits at 0-based rank p/100 * (n - 1).
    """
    if n < 1:
        return 0
    return n - 1 - math.floor(p * (n - 1) / 100.0)


def supported_percentile(n: int, p: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when n samples leave at least min_beyond samples beyond p."""
    return samples_beyond(n, p) >= min_beyond


def percentile(values, p: float) -> float:
    """Linearly interpolated p-th percentile of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), p))


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    parents[i] is the index of span i's parent, or -1 for a root. Children
    are clipped to their parent's interval and overlapping children are
    counted once, so the result never goes negative.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(len(starts))
    order = np.lexsort((starts, parents))
    order = order[parents[order] >= 0]
    s_list = starts[order].tolist()
    e_list = ends[order].tolist()
    p_list = parents[order].tolist()
    cur_parent = -1
    run_start = run_end = 0.0
    for s, e, p in zip(s_list, e_list, p_list):
        if p != cur_parent:
            if cur_parent >= 0:
                covered[cur_parent] += run_end - run_start
            cur_parent = p
            lo, hi = starts[p], ends[p]
            run_start = run_end = lo
        s = min(max(s, lo), hi)
        e = min(max(e, lo), hi)
        if s > run_end:
            covered[cur_parent] += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if cur_parent >= 0:
        covered[cur_parent] += run_end - run_start
    return (ends - starts) - covered


def fit_failure(points, truth) -> str | None:
    """Why a fitted shape counts as a failed fit, or None when it is fine.

    points and truth are (n, 2) arrays; the error is the mean Euclidean
    landmark distance, as asmfit.evaluation computes it per image.
    """
    points = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(points)):
        return "non-finite fitted points"
    err = float(np.linalg.norm(points - np.asarray(truth, dtype=float), axis=1).mean())
    if err > MAX_FIT_ERROR_PX:
        return f"mean landmark error {err:.3f} px > {MAX_FIT_ERROR_PX} px"
    return None


class FailureCount:
    """Attempted and failed operations, per kind (train, load, fit)."""

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.reasons: list[str] = []

    def record(self, kind: str, reason: str | None) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if reason is not None:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.reasons.append(f"{kind}: {reason}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def fail_frac(self) -> float:
        return self.total_failed / self.total_attempted if self.total_attempted else 0.0

    def base(self) -> str:
        """The denominator of fail_frac, spelled out per kind."""
        parts = ", ".join(f"{n} {k}" for k, n in sorted(self.attempted.items()))
        return f"{self.total_failed} failed of {self.total_attempted} ({parts})"
