"""Transfer efficiency and diagnostic observables.

The figure of merit is the squared overlap |<target|final>|^2 evaluated with
the raw (possibly sub-normalized) final state, so population leaked through
the cavity directly reduces the efficiency.  Populations and leakage
diagnostics operate on sampled trajectories; the per-sample populations,
like the photon number ``traj.expect(basis_labels(params)[0])``, are read
off the block states through
:meth:`~usctransfer.dynamics.Trajectory.expect`.  The peak photon
number is not a maximum over samples: the propagators compute it from a
cubic Hermite interpolant with exact slopes and store it on the
:class:`~usctransfer.dynamics.Trajectory`, so it does not move with the step.
A :class:`RunRecord` holds only these figures of a run, never its
trajectory; the batch harness fills one in from the functions here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .dynamics import Trajectory
from .model import ModelParams, basis_labels

__all__ = [
    "RunRecord",
    "transfer_efficiency",
    "populations",
    "cavity_indices",
    "leakage",
]


@dataclass
class RunRecord:
    """Outcome of a single protocol run.

    ``duration`` is the effective protocol duration (the 1/e support of a
    Gaussian pair, or the schedule window of a piecewise protocol).
    ``fidelity`` and ``leakage`` are each in [0, 1] but are not complements:
    population can stay in the system yet miss the target state.
    ``error`` records a per-point failure when a batch run continues past it.
    """

    params: ModelParams
    schedule: dict[str, Any]
    fidelity: float
    leakage: float
    peak_mean_photon: float
    duration: float
    wall_time: float = 0.0
    error: str | None = None


def transfer_efficiency(final: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|final>|^2, insensitive to global phases.

    ``target`` must be normalized; ``final`` may be sub-normalized after a
    lossy evolution.  Raises ``FloatingPointError`` when the overlap breaks
    the Cauchy-Schwarz bound, as it does when ``final`` holds a NaN.
    """
    final = np.asarray(final, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if final.shape != target.shape:
        raise ValueError(f"dimension mismatch: final {final.shape} vs target {target.shape}")
    norm2_target = float(np.vdot(target, target).real)
    if abs(norm2_target - 1.0) > 1e-6:
        raise ValueError(f"target is not normalized, |target|^2 = {norm2_target}")
    efficiency = float(abs(np.vdot(target, final)) ** 2)
    norm2_final = float(np.vdot(final, final).real)
    # Cauchy-Schwarz; a NaN in ``final`` fails the comparison as well
    if not efficiency <= norm2_final * norm2_target * (1.0 + 1e-9) + 1e-300:
        raise FloatingPointError(
            f"overlap {efficiency!r} exceeds |final|^2 |target|^2 = {norm2_final * norm2_target!r}"
        )
    return efficiency


def cavity_indices(params: ModelParams) -> np.ndarray:
    """Indices of every basis state carrying at least one photon."""
    return np.flatnonzero(basis_labels(params)[0] >= 1)


def populations(traj: Trajectory, indices: Iterable[int]) -> np.ndarray:
    """Per-sample population summed over the selected basis states (a repeated index counts again)."""
    indices, dim = np.asarray(list(indices), dtype=int), traj.final.size
    outside = indices[(indices < 0) | (indices >= dim)]
    if outside.size:
        raise ValueError(f"basis index {outside[0]} is outside 0..{dim - 1}")
    return traj.expect(np.bincount(indices, minlength=dim))


def leakage(traj: Trajectory) -> float:
    """Population irreversibly lost through the cavity, 1 - |final|^2."""
    return 1.0 - float(np.vdot(traj.final, traj.final).real)
