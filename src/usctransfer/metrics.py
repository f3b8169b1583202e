"""Transfer efficiency and diagnostic observables.

The figure of merit is the squared overlap |<target|final>|^2 evaluated with
the raw (possibly sub-normalized) final state, so population leaked through
the cavity directly reduces the efficiency.  Populations, photon number and
leakage diagnostics operate on sampled trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .dynamics import Trajectory
from .model import BasisIndex, ModelParams, basis_index

__all__ = [
    "RunRecord",
    "transfer_efficiency",
    "populations",
    "subspace_indices",
    "cavity_indices",
    "mean_photon",
    "peak_mean_photon",
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

    @classmethod
    def from_trajectory(
        cls,
        params: ModelParams,
        schedule: dict[str, Any],
        traj: Trajectory,
        target: np.ndarray,
        duration: float,
        wall_time: float = 0.0,
    ) -> "RunRecord":
        """Record of a finished run, with its figures measured on ``traj``."""
        return cls(
            params=params,
            schedule=schedule,
            fidelity=transfer_efficiency(traj.final, target),
            leakage=leakage(traj),
            peak_mean_photon=peak_mean_photon(traj, params),
            duration=duration,
            wall_time=wall_time,
        )


def transfer_efficiency(final: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|final>|^2, insensitive to global phases.

    ``target`` must be normalized; ``final`` may be sub-normalized after a
    lossy evolution.
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
    # Cauchy-Schwarz: can only fail through a programming error upstream.
    assert efficiency <= norm2_final * norm2_target * (1.0 + 1e-9) + 1e-300
    return efficiency


def subspace_indices(
    params: ModelParams, predicate: Callable[[BasisIndex], bool]
) -> np.ndarray:
    """Flat indices of all basis states satisfying ``predicate``."""
    return np.array(
        [k for k in range(params.dim) if predicate(basis_index(k, params))], dtype=int
    )


def cavity_indices(params: ModelParams) -> np.ndarray:
    """Indices of every basis state carrying at least one photon."""
    return subspace_indices(params, lambda b: b.n >= 1)


def populations(traj: Trajectory, indices: Iterable[int]) -> np.ndarray:
    """Per-sample population summed over the selected basis states."""
    indices = np.asarray(list(indices), dtype=int)
    return np.sum(np.abs(traj.states[:, indices]) ** 2, axis=1)


def mean_photon(state: np.ndarray, params: ModelParams) -> float:
    """Raw photon-number expectation <psi|a^dag a|psi> (no renormalization)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (params.dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({params.dim},)")
    n_values = np.repeat(np.arange(params.n_max + 1), 4)
    return float(np.sum(n_values * np.abs(state) ** 2))


def peak_mean_photon(traj: Trajectory, params: ModelParams) -> float:
    """Largest photon-number expectation over the sampled trajectory."""
    n_values = np.repeat(np.arange(params.n_max + 1), 4)
    return float((np.abs(traj.states) ** 2 @ n_values).max())


def leakage(traj: Trajectory) -> float:
    """Population irreversibly lost through the cavity, 1 - |final|^2."""
    return 1.0 - float(np.vdot(traj.final, traj.final).real)
