"""Batch harness: Gaussian runs, delay calibration, and 2-D sweeps.

A sweep evaluates the Gaussian protocol on a grid over the inverse speed
(omega_c T)^-1 and the peak coupling g0/omega_c, producing one record per
point.  The points of one t_inv row share the pulse shape, the integration
window and the step grid and differ only in g0, so a row is one task: its
points are stepped together by one call of the stepper, and each record's
``wall_time`` is the row's wall time divided by its point count.  Rows are
independent; with ``jobs > 1`` they run on a process pool (more workers than
rows leaves the extra workers idle), and the output ordering is row-major
(t_inv outer, g0 inner) no matter how execution interleaves.  A failed point
is recorded in-row and the sweep continues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PropagationOptions, Trajectory, propagate
from .metrics import RunRecord
from .model import ModelParams, superposition_initial, superposition_target
from .pulses import (
    DEFAULT_TAU_RATIO,
    DEFAULT_WINDOW_CUTOFF,
    GaussianPair,
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
    """Everything held constant across a sweep besides (t_inv, g0)."""

    params: ModelParams = ModelParams()
    tau_ratio: float = DEFAULT_TAU_RATIO
    cutoff: float = DEFAULT_WINDOW_CUTOFF
    alpha: complex = 0.0
    beta: complex = 1.0
    options: PropagationOptions = PropagationOptions()


@dataclass(frozen=True)
class SweepGrid:
    """Axes and fixed settings of a 2-D efficiency map."""

    t_inv_values: np.ndarray
    g0_values: np.ndarray
    fixed: SweepFixed = SweepFixed()
    model: str = "rabi"

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_inv_values", np.asarray(self.t_inv_values, dtype=float))
        object.__setattr__(self, "g0_values", np.asarray(self.g0_values, dtype=float))
        for name, axis in (("t_inv_values", self.t_inv_values), ("g0_values", self.g0_values)):
            if axis.size == 0:
                raise ValueError(f"{name} must be non-empty")
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

    The runs share the pulse shape, window and step grid, so they are
    stepped together: one unit-amplitude pulse pair scaled by each ``g0``.
    Returns a (record, trajectory) pair per ``g0``, in order; every record's
    ``wall_time`` is the row's wall time divided by the number of runs.
    """
    if not t_inv > 0:
        raise ValueError(f"t_inv must be positive, got {t_inv}")
    if model not in ("rabi", "rwa"):
        raise ValueError(f"model must be 'rabi' or 'rwa', got {model!r}")
    params = fixed.params
    width = 1.0 / (params.omega_c * t_inv)
    pairs = [GaussianPair(g0=float(g0), T=width, tau=fixed.tau_ratio * width) for g0 in g0_values]
    if not pairs:
        raise ValueError("g0_values must be non-empty")
    unit = replace(pairs[0], g0=1.0)
    window = integration_window(unit, fixed.cutoff)
    initial = superposition_initial(fixed.alpha, fixed.beta, params)
    target = superposition_target(fixed.alpha, fixed.beta, params)

    start = time.perf_counter()
    amplitudes = [pair.g0 for pair in pairs]
    trajs = propagate(initial, unit, params, window, fixed.options, amplitudes=amplitudes, rwa=(model == "rwa"))
    wall = (time.perf_counter() - start) / len(pairs)

    runs = []
    for pair, traj in zip(pairs, trajs):
        descriptor = _descriptor(
            t_inv, pair.g0, fixed, model, T=width, tau=pair.tau, window=[window[0], window[1]]
        )
        record = RunRecord.from_trajectory(
            params, descriptor, traj, target, effective_duration(pair), wall
        )
        runs.append((record, traj))
    return runs


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


def _point_task(t_inv, g0, fixed, model) -> RunRecord:
    try:
        return run_point(t_inv, g0, fixed, model)
    except Exception as exc:
        return _failed_record(t_inv, g0, fixed, model, exc)


def _row_task(task) -> list[RunRecord]:
    """Records of one t_inv row; if the batched row raises, its points run one at a time."""
    t_inv, g0_values, fixed, model = task
    try:
        return [record for record, _ in gaussian_row(t_inv, g0_values, fixed, model)]
    except Exception:
        return [_point_task(t_inv, g0, fixed, model) for g0 in g0_values]


def run_sweep(grid: SweepGrid, jobs: int = 1) -> list[RunRecord]:
    """Evaluate every grid point; row-major order (t_inv outer, g0 inner).

    Each t_inv row is one task whose points are stepped together, and each
    of its records carries the row's wall time divided by its point count.
    ``jobs > 1`` distributes the rows over a process pool, in ascending
    t_inv so that the slowest rows start first; workers beyond the number of
    rows stay idle, and the result is identical either way.  A point that
    raises is returned as a record with NaN figures and the error message in
    ``record.error``; so is every point of a row lost with a crashed worker.
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
    metric: str = "match",
    reference: float = PUBLISHED_REFERENCE_EFFICIENCY,
) -> tuple[RunRecord, list[RunRecord]]:
    """Scan the pulse delay tau/T over ``ratios`` and pick one run.

    The delay of the published protocol is not known, so it is calibrated
    from the scan: ``metric="match"`` selects the run whose efficiency is
    closest to ``reference`` (reproducing the published operating point),
    ``metric="max"`` plainly maximizes the efficiency.  Returns the selected
    record and the full scan.
    """
    if metric not in ("match", "max"):
        raise ValueError(f"metric must be 'match' or 'max', got {metric!r}")
    records = [
        run_point(t_inv, g0, replace(fixed, tau_ratio=float(r)), model) for r in ratios
    ]
    if metric == "max":
        best = max(records, key=lambda rec: rec.fidelity)
    else:
        best = min(records, key=lambda rec: abs(rec.fidelity - reference))
    return best, records


def default_grid(fixed: SweepFixed | None = None, model: str = "rabi") -> SweepGrid:
    """The standard 10 x 10 map covering the USC window and the reference point."""
    return SweepGrid(
        t_inv_values=DEFAULT_T_INV_VALUES.copy(),
        g0_values=DEFAULT_G0_VALUES.copy(),
        fixed=fixed or SweepFixed(),
        model=model,
    )
