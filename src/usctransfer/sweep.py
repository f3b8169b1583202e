"""Batch harness: Gaussian runs, schedule replays, delay calibration, and 2-D sweeps.

A sweep evaluates the Gaussian protocol on a grid over the inverse speed
t_inv = (omega_c T)^-1 and the peak coupling g0, both in units of the cavity
frequency omega_c (see :mod:`model`), producing one record per point.  The
points of one t_inv row share the pulse shape, the integration window and
the step grid and differ only in g0, so a row is one task: its points are
stepped together by one call of the stepper, and each record's ``wall_time``
is the row's wall time divided by its point count.  Rows are independent;
with ``jobs > 1`` they run on a pool of at most one worker process per row,
and the output ordering is row-major (t_inv outer, g0 inner) no matter how
execution interleaves.  A row that raises records each of its points with
NaN figures and the row's error, and the sweep continues.  A crashed worker
costs only its own rows: the rows lost with it run again alone.  The grid
admits only finite positive axis values, so that the points of a row fail or
succeed together.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._pool import run_tasks
from .dynamics import PropagationOptions, Trajectory, propagate
from .metrics import RunRecord, leakage, transfer_efficiency
from .model import ModelParams, _check_input_pair, occupied_blocks, superposition_initial, superposition_target
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
    "run_point",
    "run_sweep",
    "schedule_run",
    "calibrate_tau",
    "DEFAULT_T_INV_VALUES",
    "DEFAULT_G0_VALUES",
]

DEFAULT_T_INV_VALUES = np.linspace(0.01, 0.10, 10)
DEFAULT_G0_VALUES = np.linspace(0.05, 0.5, 10)
CALIBRATION_RATIOS = tuple(np.round(np.arange(0.4, 1.21, 0.1), 10))
PUBLISHED_REFERENCE_EFFICIENCY = 0.95
# the fastest row of the default map, the row at which PropagationOptions.dt is calibrated
STEP_CALIBRATION_T_INV = 0.1
# at the default step, the bound on the transfer-efficiency error of a one-block input
# on the default map, under both models, against a dt = 0.0125 run (worst measured:
# 1.07e-10, Rabi (0, 1) at t_inv 0.01, g0 0.5); the two-block (0.6, 0.8) reaches 1.59e-10
STEP_F_ERROR = 1.1e-10


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
                axis = np.array(getattr(self, name), dtype=float)  # a copy, so the grid aliases no caller's array
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
        _half_delay(float(self.t_inv_values[0]), self.fixed.tau_ratio)  # the slowest row has the longest delay
        _is_rwa(self.model)


def _half_delay(t_inv: float, tau_ratio: float) -> float:
    """The Gaussian pair's half-delay tau_ratio / t_inv; one past the largest float raises ValueError."""
    tau = tau_ratio * (1.0 / t_inv)
    if not tau < np.inf:
        raise ValueError(f"tau_ratio {tau_ratio} at t_inv {t_inv} puts the half-delay tau_ratio / t_inv past the "
                         "largest float")
    return tau


def _is_rwa(model: str) -> bool:
    """Whether ``model`` names the rotating-wave dynamics; a name other than 'rabi' or 'rwa' raises ValueError."""
    if model not in ("rabi", "rwa"):
        raise ValueError(f"model must be 'rabi' or 'rwa', got {model!r}")
    return model == "rwa"


def gaussian_row(
    t_inv: float, g0_values, fixed: SweepFixed, model: str = "rabi"
) -> list[tuple[RunRecord, Trajectory]]:
    """Gaussian-protocol runs at inverse speed ``t_inv``, one per peak in ``g0_values``.

    The runs share the pulse width T, the delay tau, the integration window,
    the effective duration and the step grid, so they are stepped together:
    one unit-amplitude pulse pair scaled by each ``g0``.  Returns a (record,
    trajectory) pair per ``g0``, in order; every record's ``wall_time`` is
    the row's wall time divided by the number of runs.

    The row steps at ``fixed.options.dt`` when it is at least as fast as
    ``STEP_CALIBRATION_T_INV`` (0.1), the row the default step is calibrated
    on.  A slower row whose input lies in one conserved block of the model,
    such as the default (0, 1) or (1, 0), steps at
    dt sqrt(STEP_CALIBRATION_T_INV / t_inv): the step error of its
    efficiency falls with the pulse width, and at the default step every F
    of a one-block input on the default map stays within ``STEP_F_ERROR``
    of a dt = 0.0125 run.  An input on two blocks keeps ``dt`` on every row,
    because its F also reads the relative phase of the blocks, whose step
    error grows with the window.
    """
    if not 0 < t_inv < np.inf:
        raise ValueError(f"t_inv must be finite and positive, got {t_inv}")
    g0s = [float(g0) for g0 in g0_values]
    if not g0s:
        raise ValueError("g0_values must be non-empty")
    if bad := [g0 for g0 in g0s if not 0 <= g0 < np.inf]:
        raise ValueError(f"peak coupling must be finite and non-negative, got g0 = {bad[0]}")
    width = 1.0 / t_inv
    unit = GaussianPair(g0=1.0, T=width, tau=_half_delay(t_inv, fixed.tau_ratio))
    window = integration_window(unit, fixed.cutoff)
    duration, pulse = effective_duration(unit), {"T": width, "tau": unit.tau}
    runs = [(g0, duration, _descriptor(t_inv, g0, fixed, model, **pulse, window=list(window))) for g0 in g0s]
    opts = fixed.options
    initial = superposition_initial(fixed.alpha, fixed.beta, fixed.params)
    if t_inv < STEP_CALIBRATION_T_INV and len(occupied_blocks(fixed.params, _is_rwa(model), initial)) == 1:
        opts = PropagationOptions(dt=opts.dt * math.sqrt(STEP_CALIBRATION_T_INV / t_inv))
    return _run(unit, window, opts, fixed, model, runs)


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
    rwa, params = _is_rwa(model), fixed.params
    initial = superposition_initial(fixed.alpha, fixed.beta, params)
    target = superposition_target(fixed.alpha, fixed.beta, params)
    start = time.perf_counter()
    amplitudes = [amp for amp, _, _ in runs]
    trajs = propagate(initial, schedule, params, window, opts, amplitudes=amplitudes, rwa=rwa)
    wall = (time.perf_counter() - start) / len(runs)
    return [
        (RunRecord(params=params, schedule=descriptor, fidelity=transfer_efficiency(traj.final, target),
                   leakage=leakage(traj), peak_mean_photon=traj.peak_mean_photon, duration=duration,
                   wall_time=wall), traj)
        for (_, duration, descriptor), traj in zip(runs, trajs)
    ]


def run_point(t_inv: float, g0: float, fixed: SweepFixed, model: str = "rabi") -> RunRecord:
    """Record of the one Gaussian-protocol run of :func:`gaussian_row` at (``t_inv``, ``g0``)."""
    return gaussian_row(t_inv, [g0], fixed, model)[0][0]


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
    ``jobs > 1`` distributes the rows over ``min(jobs, rows)`` worker
    processes, in ascending t_inv so that the slowest rows start first;
    workers beyond the number of rows are never started, and the result is
    identical either way.  Every point of a row that raises is returned as a
    record with NaN figures and the row's error message in ``record.error``.
    A row lost with a crashed worker runs again alone, and only a row whose
    worker dies again is recorded so, with the ``BrokenProcessPool``: a
    crashed worker costs only its own rows.
    """
    g0_values = [float(g0) for g0 in grid.g0_values]
    tasks = [(float(t_inv), g0_values, grid.fixed, grid.model) for t_inv in grid.t_inv_values]
    records = []
    for (t_inv, *_), row in zip(tasks, run_tasks(_row_task, tasks, jobs)):
        if isinstance(row, Exception):  # the row's worker died twice
            row = [_failed_record(t_inv, g0, grid.fixed, grid.model, row) for g0 in g0_values]
        records.extend(row)
    return records


def calibrate_tau(
    t_inv: float,
    g0: float,
    fixed: SweepFixed,
    model: str = "rabi",
) -> tuple[RunRecord, list[RunRecord]]:
    """Delay scan over tau/T in ``CALIBRATION_RATIOS``, 0.4 to 1.2: the run nearest the published F, and the scan.

    The delay of the published protocol is not known, so it is calibrated:
    the selected run is the first whose efficiency is closest to
    ``PUBLISHED_REFERENCE_EFFICIENCY`` (0.95), the published operating point.
    """
    records = [run_point(t_inv, g0, replace(fixed, tau_ratio=float(r)), model) for r in CALIBRATION_RATIOS]
    best = min(records, key=lambda rec: abs(rec.fidelity - PUBLISHED_REFERENCE_EFFICIENCY))
    return best, records
