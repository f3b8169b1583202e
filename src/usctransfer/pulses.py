"""Time-dependent coupling schedules g1(t), g2(t).

Two parameterizations: a pair of delayed Gaussians in counterintuitive order
(the target-side coupling g2 peaks before the source-side g1, the standard
STIRAP arrangement), and a bounded piecewise-constant schedule used as the
optimization search space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianPair",
    "PiecewiseConstantSchedule",
    "clamp_schedule",
    "integration_window",
    "effective_duration",
]

DEFAULT_TAU_RATIO = 0.6
DEFAULT_WINDOW_CUTOFF = 1e-4


@dataclass(frozen=True)
class GaussianPair:
    """Counterintuitive Gaussian pulse pair.

    g1(t) = g0 exp(-((t - tau)/T)^2) and g2(t) = g0 exp(-((t + tau)/T)^2),
    so g2 peaks at -tau, ahead of g1 at +tau.  ``g0 = 0`` is allowed as the
    degenerate uncoupled limit.
    """

    g0: float
    T: float
    tau: float

    def __post_init__(self) -> None:
        if self.g0 < 0:
            raise ValueError(f"peak coupling must be non-negative, got {self.g0}")
        if not self.T > 0:
            raise ValueError(f"pulse width must be positive, got {self.T}")
        if self.tau < 0:
            raise ValueError(f"half-delay must be non-negative, got {self.tau}")

    def values(self, t: float) -> tuple[float, float]:
        """Both couplings at time ``t``."""
        x1 = (t - self.tau) / self.T
        x2 = (t + self.tau) / self.T
        return self.g0 * math.exp(-x1 * x1), self.g0 * math.exp(-x2 * x2)


@dataclass(frozen=True)
class PiecewiseConstantSchedule:
    """Step-function schedule: M bins of width ``dt`` starting at ``t_start``.

    ``values1``/``values2`` hold the per-bin couplings.  ``bounds`` is the
    admissible amplitude range; :func:`clamp_schedule` projects stray values
    into it and the optimizer never leaves it.  Outside the window the
    schedule is either zero (default) or holds the edge bin, selected by
    ``outside``.
    """

    t_start: float
    dt: float
    values1: np.ndarray
    values2: np.ndarray
    bounds: tuple[float, float]
    outside: str = "zero"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values1", np.asarray(self.values1, dtype=float))
        object.__setattr__(self, "values2", np.asarray(self.values2, dtype=float))
        if self.values1.ndim != 1 or self.values1.shape != self.values2.shape:
            raise ValueError("values1 and values2 must be 1-d arrays of equal length")
        if self.bins < 1:
            raise ValueError("schedule needs at least one bin")
        if not self.dt > 0:
            raise ValueError(f"bin width must be positive, got {self.dt}")
        lo, hi = self.bounds
        if lo > hi:
            raise ValueError(f"bounds must be ordered, got {self.bounds}")
        if self.outside not in ("zero", "edge"):
            raise ValueError(f"outside must be 'zero' or 'edge', got {self.outside!r}")

    @property
    def bins(self) -> int:
        return self.values1.shape[0]

    @property
    def duration(self) -> float:
        return self.bins * self.dt

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def bin_of(self, t: float) -> int | None:
        """Bin index for time ``t``; None outside the window.

        Bins are left-closed, right-open; the final instant t_end maps to
        the last bin.
        """
        if t < self.t_start or t > self.t_end:
            return None
        k = int(math.floor((t - self.t_start) / self.dt))
        return min(k, self.bins - 1)

    def values(self, t: float) -> tuple[float, float]:
        """Both couplings at time ``t``."""
        k = self.bin_of(t)
        if k is None:
            if self.outside == "zero":
                return 0.0, 0.0
            k = 0 if t < self.t_start else self.bins - 1
        return float(self.values1[k]), float(self.values2[k])

    def stacked(self) -> np.ndarray:
        """Control vector of length 2M: all g1 bins, then all g2 bins."""
        return np.concatenate([self.values1, self.values2])

    def with_values(self, stacked: np.ndarray) -> "PiecewiseConstantSchedule":
        """Same grid and bounds with new values from a stacked 2M vector."""
        stacked = np.asarray(stacked, dtype=float)
        m = self.bins
        if stacked.shape != (2 * m,):
            raise ValueError(f"expected a vector of length {2 * m}, got {stacked.shape}")
        return PiecewiseConstantSchedule(
            self.t_start, self.dt, stacked[:m], stacked[m:], self.bounds, self.outside
        )


def clamp_schedule(sched: PiecewiseConstantSchedule) -> PiecewiseConstantSchedule:
    """Project every bin value into the schedule's bounds (idempotent)."""
    lo, hi = sched.bounds
    return PiecewiseConstantSchedule(
        sched.t_start,
        sched.dt,
        np.clip(sched.values1, lo, hi),
        np.clip(sched.values2, lo, hi),
        sched.bounds,
        sched.outside,
    )


def integration_window(
    pair: GaussianPair, cutoff: float = DEFAULT_WINDOW_CUTOFF
) -> tuple[float, float]:
    """Symmetric time window outside of which both pulses fall below cutoff*g0.

    The later pulse g1 drops below cutoff*g0 at tau + T*sqrt(ln(1/cutoff));
    by mirror symmetry of the pair the window is (-t_end, t_end).
    """
    if not 0 < cutoff < 1:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    t_end = pair.tau + pair.T * math.sqrt(math.log(1.0 / cutoff))
    return -t_end, t_end


def effective_duration(pair: GaussianPair, threshold: float = math.exp(-1)) -> float:
    """Length of the interval where max(g1, g2) stays above threshold*g0.

    With the counterintuitive pair this is 2*tau + 2*T*sqrt(ln(1/threshold));
    at the default 1/e threshold, 2*tau + 2*T.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return 2.0 * pair.tau + 2.0 * pair.T * math.sqrt(math.log(1.0 / threshold))
