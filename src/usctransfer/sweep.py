"""Batch harness: Gaussian runs, schedule replays, delay calibration, and 2-D sweeps.

A sweep evaluates the Gaussian protocol on a grid over the inverse speed
(omega_c T)^-1 and the peak coupling g0/omega_c, producing one record per
point.  The points of one t_inv row share the pulse shape, the integration
window and the step grid and differ only in g0, so a row is one task: its
points are stepped together by one call of the stepper, and each record's
``wall_time`` is the row's wall time divided by its point count.  Rows are
independent; with ``jobs > 1`` they run on a process pool (more workers than
rows leaves the extra workers idle), and the output ordering is row-major
(t_inv outer, g0 inner) no matter how execution interleaves.  A row that
raises records each of its points with NaN figures and the row's error, and
the sweep continues.  The grid admits only finite positive axis values, so
that the points of a row fail or succeed together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PropagationOptions, Trajectory, propagate
from .metrics import RunRecord
from .model import ModelParams, _check_input_pair, superposition_initial, superposition_target
from .pulses import (
    DEFAULT_TAU_RATIO,
    DEFAULT_WINDOW_CUTOFF,
    GaussianPair,
    PiecewiseConstantSchedule,
    effective_duration,
    integration_window,
)

__all__ = [
    "SweepFixed",
    "SweepGrid",
    "gaussian_row",
    "gaussian_run",
    "run_point",
    "run_sweep",
    "schedule_run",
    "calibrate_tau",
    "default_grid",
    "DEFAULT_T_INV_VALUES",
    "DEFAULT_G0_VALUES",
]

DEFAULT_T_INV_VALUES = np.linspace(0.01, 0.10, 10)
DEFAULT_G0_VALUES = np.linspace(0.05, 0.5, 10)
CALIBRATION_RATIOS = tuple(np.round(np.arange(0.4, 1.21, 0.1), 10))
PUBLISHED_REFERENCE_EFFICIENCY = 0.95


@dataclass(frozen=True)
class SweepFixed:
    """Everything held constant across a sweep besides (t_inv, g0).

    The delay ratio, the window cutoff and the input pair are checked here,
    so a sweep with an invalid one fails before any row runs.
    """

    params: ModelParams = ModelParams()
    tau_ratio: float = DEFAULT_TAU_RATIO
    cutoff: float = DEFAULT_WINDOW_CUTOFF
    alpha: complex = 0.0
    beta: complex = 1.0
    options: PropagationOptions = PropagationOptions()

    def __post_init__(self) -> None:
        if not 0 <= self.tau_ratio < np.inf:
            raise ValueError(f"tau_ratio must be finite and non-negative, got {self.tau_ratio}")
        if not 0 < self.cutoff < 1:
            raise ValueError(f"cutoff must be in (0, 1), got {self.cutoff}")
        _check_input_pair(self.alpha, self.beta)


@dataclass(frozen=True)
class SweepGrid:
    """Axes and fixed settings of a 2-D efficiency map."""

    t_inv_values: np.ndarray
    g0_values: np.ndarray
    fixed: SweepFixed = SweepFixed()
    model: str = "rabi"

    def __post_init__(self) -> None:
        for name in ("t_inv_values", "g0_values"):
            try:
                axis = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):  # ragged, or not numbers
                axis = None
            if axis is None or axis.ndim != 1:
                raise ValueError(f"{name} must be a flat list of numbers, got {getattr(self, name)!r}")
            object.__setattr__(self, name, axis)
            if axis.size == 0:
                raise ValueError(f"{name} must be non-empty")
            if not np.all(np.isfinite(axis)):
                raise ValueError(f"{name} must be finite, got {axis.tolist()}")
            if axis.min() <= 0:
                raise ValueError(f"{name} must be positive")
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.model not in ("rabi", "rwa"):
            raise ValueError(f"model must be 'rabi' or 'rwa', got {self.model!r}")


def gaussian_row(
    t_inv: float, g0_values, fixed: SweepFixed, model: str = "rabi"
) -> list[tuple[RunRecord, Trajectory]]:
    """Gaussian-protocol runs at inverse speed ``t_inv``, one per peak in ``g0_values``.

    The runs share the pulse width T, the delay tau, the integration window,
    the effective duration and the step grid, so they are stepped together:
    one unit-amplitude pulse pair scaled by each ``g0``.  Returns a (record,
    trajectory) pair per ``g0``, in order; every record's ``wall_time`` is
    the row's wall time divided by the number of runs.
    """
    if not 0 < t_inv < np.inf:
        raise ValueError(f"t_inv must be finite and positive, got {t_inv}")
    g0s = [float(g0) for g0 in g0_values]
    if not g0s:
        raise ValueError("g0_values must be non-empty")
    if bad := [g0 for g0 in g0s if not 0 <= g0 < np.inf]:
        raise ValueError(f"peak coupling must be finite and non-negative, got g0 = {bad[0]}")
    width = 1.0 / (fixed.params.omega_c * t_inv)
    unit = GaussianPair(g0=1.0, T=width, tau=fixed.tau_ratio * width)
    window = integration_window(unit, fixed.cutoff)
    duration, pulse = effective_duration(unit), {"T": width, "tau": unit.tau}
    runs = [(g0, duration, _descriptor(t_inv, g0, fixed, model, **pulse, window=list(window))) for g0 in g0s]
    return _run(unit, window, fixed.options, fixed, model, runs)


def schedule_run(
    sched: PiecewiseConstantSchedule, fixed: SweepFixed, model: str = "rabi"
) -> tuple[RunRecord, Trajectory]:
    """Exact replay of ``sched``, one step per bin, from ``fixed``'s params and input (alpha, beta).

    Returns the run record together with the trajectory it was measured on.
    """
    descriptor = {"kind": "piecewise", "model": model, "bins": sched.bins, "dt": sched.dt, "t_start": sched.t_start,
                  "duration": sched.duration, "alpha": fixed.alpha, "beta": fixed.beta}
    window, opts = (sched.t_start, sched.t_end), PropagationOptions(dt=sched.dt)
    return _run(sched, window, opts, fixed, model, [(1.0, sched.duration, descriptor)])[0]


def _run(schedule, window, opts, fixed: SweepFixed, model: str, runs) -> list[tuple[RunRecord, Trajectory]]:
    """Step the (amplitude, duration, descriptor) ``runs`` of ``schedule`` together and record each.

    Every record's ``wall_time`` is the stepper's wall time divided by the number of runs.
    """
    if model not in ("rabi", "rwa"):
        raise ValueError(f"model must be 'rabi' or 'rwa', got {model!r}")
    params = fixed.params
    initial = superposition_initial(fixed.alpha, fixed.beta, params)
    target = superposition_target(fixed.alpha, fixed.beta, params)
    start = time.perf_counter()
    amplitudes = [amp for amp, _, _ in runs]
    trajs = propagate(initial, schedule, params, window, opts, amplitudes=amplitudes, rwa=(model == "rwa"))
    wall = (time.perf_counter() - start) / len(runs)
    return [
        (RunRecord.from_trajectory(params, descriptor, traj, target, duration, wall), traj)
        for (_, duration, descriptor), traj in zip(runs, trajs)
    ]


def gaussian_run(
    t_inv: float, g0: float, fixed: SweepFixed, model: str = "rabi"
) -> tuple[RunRecord, Trajectory]:
    """One Gaussian-protocol run at inverse speed ``t_inv`` and peak ``g0``.

    The one-point case of :func:`gaussian_row`.  Returns the run record
    together with the trajectory it was measured on.
    """
    return gaussian_row(t_inv, [g0], fixed, model)[0]


def run_point(t_inv: float, g0: float, fixed: SweepFixed, model: str = "rabi") -> RunRecord:
    """Record of :func:`gaussian_run` at (``t_inv``, ``g0``), without the trajectory."""
    return gaussian_run(t_inv, g0, fixed, model)[0]


def _descriptor(t_inv, g0, fixed: SweepFixed, model: str, **pulse) -> dict:
    """Schedule descriptor of the Gaussian point (``t_inv``, ``g0``).

    ``pulse`` adds what only a built run knows (``T``, ``tau``, ``window``);
    a failed point's record goes without them.
    """
    return {
        "kind": "gaussian",
        "model": model,
        "t_inv": float(t_inv),
        "g0": float(g0),
        "tau_ratio": fixed.tau_ratio,
        "cutoff": fixed.cutoff,
        "alpha": fixed.alpha,
        "beta": fixed.beta,
        **pulse,
    }


def _failed_record(t_inv, g0, fixed, model, exc) -> RunRecord:
    nan = float("nan")
    return RunRecord(
        params=fixed.params,
        schedule=_descriptor(t_inv, g0, fixed, model),
        fidelity=nan,
        leakage=nan,
        peak_mean_photon=nan,
        duration=nan,
        error=f"{type(exc).__name__}: {exc}",
    )


def _row_task(task) -> list[RunRecord]:
    """Records of one t_inv row; if the row raises, each of its points records the row's error."""
    t_inv, g0_values, fixed, model = task
    try:
        return [record for record, _ in gaussian_row(t_inv, g0_values, fixed, model)]
    except Exception as exc:
        return [_failed_record(t_inv, g0, fixed, model, exc) for g0 in g0_values]


def run_sweep(grid: SweepGrid, jobs: int = 1) -> list[RunRecord]:
    """Evaluate every grid point; row-major order (t_inv outer, g0 inner).

    Each t_inv row is one task whose points are stepped together, and each
    of its records carries the row's wall time divided by its point count.
    ``jobs > 1`` distributes the rows over a process pool, in ascending
    t_inv so that the slowest rows start first; workers beyond the number of
    rows stay idle, and the result is identical either way.  Every point of
    a row that raises is returned as a record with NaN figures and the row's
    error message in ``record.error``; so is every point of a row lost with a
    crashed worker.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    g0_values = [float(g0) for g0 in grid.g0_values]
    tasks = [(float(t_inv), g0_values, grid.fixed, grid.model) for t_inv in grid.t_inv_values]
    if jobs == 1:
        return [record for task in tasks for record in _row_task(task)]
    # imported here so that simulate and optimize start without multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    records = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_row_task, task) for task in tasks]
        for (t_inv, *_), future in zip(tasks, futures):
            try:
                records.extend(future.result())
            except BrokenProcessPool as exc:
                records.extend(
                    _failed_record(t_inv, g0, grid.fixed, grid.model, exc) for g0 in g0_values
                )
    return records


def calibrate_tau(
    t_inv: float,
    g0: float,
    fixed: SweepFixed,
    model: str = "rabi",
    ratios=CALIBRATION_RATIOS,
) -> tuple[RunRecord, list[RunRecord]]:
    """Scan the pulse delay tau/T over ``ratios``; return the run closest to the published efficiency, and the scan.

    The delay of the published protocol is not known, so it is calibrated:
    the selected run is the first whose efficiency is closest to
    ``PUBLISHED_REFERENCE_EFFICIENCY`` (0.95), the published operating point.
    """
    records = [run_point(t_inv, g0, replace(fixed, tau_ratio=float(r)), model) for r in ratios]
    best = min(records, key=lambda rec: abs(rec.fidelity - PUBLISHED_REFERENCE_EFFICIENCY))
    return best, records


def default_grid(fixed: SweepFixed | None = None, model: str = "rabi") -> SweepGrid:
    """The standard 10 x 10 map covering the USC window and the reference point."""
    return SweepGrid(
        t_inv_values=DEFAULT_T_INV_VALUES.copy(),
        g0_values=DEFAULT_G0_VALUES.copy(),
        fixed=fixed or SweepFixed(),
        model=model,
    )
