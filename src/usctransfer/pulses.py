"""Time-dependent coupling schedules g1(t), g2(t).

Two parameterizations: a pair of delayed Gaussians in counterintuitive order
(the target-side coupling g2 peaks before the source-side g1, the standard
STIRAP arrangement), and a piecewise-constant schedule used as the
optimization search space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianPair",
    "PiecewiseConstantSchedule",
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
        if not 0 <= self.g0 < math.inf:
            raise ValueError(f"peak coupling g0 must be finite and non-negative, got {self.g0}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"pulse width T must be finite and positive, got {self.T}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"half-delay tau must be finite and non-negative, got {self.tau}")

    def values(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both couplings (g1, g2) at the time or array of times ``t``, each of ``t``'s shape."""
        x1 = (t - self.tau) / self.T
        x2 = (t + self.tau) / self.T
        return self.g0 * np.exp(-x1 * x1), self.g0 * np.exp(-x2 * x2)


@dataclass(frozen=True)
class PiecewiseConstantSchedule:
    """Step-function schedule: M bins of width ``dt`` starting at ``t_start``.

    ``t_start``, ``dt`` and the per-bin couplings ``values1``/``values2``
    must be finite; outside the window both couplings are zero.  The amplitude
    bounds of an optimization belong to its ``OptimizationConfig``, not to
    the schedule.  :func:`dynamics.propagate` replays a schedule exactly
    with ``window=(sched.t_start, sched.t_end)`` and
    ``PropagationOptions(dt=sched.dt)``: one step per bin, on the bin edges.
    It reads the couplings just inside both ends of each step, so every
    step sees its own bin also where rounding puts an edge a little off.
    """

    t_start: float
    dt: float
    values1: np.ndarray
    values2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values1", np.asarray(self.values1, dtype=float))
        object.__setattr__(self, "values2", np.asarray(self.values2, dtype=float))
        if self.values1.ndim != 1 or self.values1.shape != self.values2.shape:
            raise ValueError("values1 and values2 must be 1-d arrays of equal length")
        if self.bins < 1:
            raise ValueError("schedule needs at least one bin")
        if not math.isfinite(self.t_start):
            raise ValueError(f"schedule t_start must be finite, got {self.t_start}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"bin width dt must be finite and positive, got {self.dt}")
        for name, values in (("values1", self.values1), ("values2", self.values2)):
            if bad := np.flatnonzero(~np.isfinite(values)).tolist():
                raise ValueError(f"schedule {name} has a non-finite coupling in bin {bad[0]}: {values[bad[0]]}")

    @property
    def bins(self) -> int:
        return self.values1.shape[0]

    @property
    def duration(self) -> float:
        return self.bins * self.dt

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def values(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both couplings (g1, g2) at the time or array of times ``t``, each of ``t``'s shape.

        Bins are left-closed, right-open; the final instant t_end maps to
        the last bin, and outside the window (``-inf`` and ``inf`` too) both
        couplings are zero.  A NaN time is a ValueError.
        """
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError("schedule read at time nan")
        k = np.clip(np.floor((t - self.t_start) / self.dt), 0, self.bins - 1).astype(int)
        inside = (t >= self.t_start) & (t <= self.t_end)
        return np.where(inside, self.values1[k], 0.0), np.where(inside, self.values2[k], 0.0)

    def stacked(self) -> np.ndarray:
        """Control vector of length 2M: all g1 bins, then all g2 bins."""
        return np.concatenate([self.values1, self.values2])

    def with_values(self, stacked: np.ndarray) -> "PiecewiseConstantSchedule":
        """Same grid with new values from a stacked 2M vector."""
        stacked = np.asarray(stacked, dtype=float)
        m = self.bins
        if stacked.shape != (2 * m,):
            raise ValueError(f"expected a vector of length {2 * m}, got {stacked.shape}")
        return PiecewiseConstantSchedule(self.t_start, self.dt, stacked[:m], stacked[m:])


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


def effective_duration(pair: GaussianPair) -> float:
    """Length 2*tau + 2*T of the interval where max(g1, g2) stays above g0/e."""
    return 2.0 * pair.tau + 2.0 * pair.T
