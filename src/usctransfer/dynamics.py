"""Non-Hermitian time evolution under the driven qubit-cavity generator.

The state obeys i d|psi>/dt = K(t)|psi> with K(t) = K0 + g1(t) V1 + g2(t) V2
and K0 = H0 - (i/2) kappa a^dag a.  :func:`generators` is the one place the
generator is assembled; every propagator and the gradient engine build on
it.  The stepper applies exp(-i K(t_mid) dt) per step with the controls
sampled at the step midpoint (second-order accurate for smooth schedules,
exact for constant ones).  States are never renormalized: with kappa > 0 the
squared norm decays monotonically and the loss equals the population leaked
through the cavity.

The matrix exponential uses scaling-and-squaring with a trace shift and a
Taylor kernel; for state propagation the exponential is applied directly to
the amplitude vector, which avoids forming per-step matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, coupling_operator, drift_hamiltonian, number_operator

__all__ = [
    "IntegrationError",
    "PropagationOptions",
    "Trajectory",
    "generators",
    "matrix_exponential",
    "propagate",
    "propagate_piecewise",
]

_TAYLOR_THETA = 0.5  # scale matrices below this 1-norm before the Taylor sum
_MAX_TAYLOR_TERMS = 64


class IntegrationError(RuntimeError):
    """Propagation failed (non-finite couplings or state)."""


@dataclass(frozen=True)
class PropagationOptions:
    """Stepper settings.

    The stepper takes fixed steps of at most ``dt`` with midpoint control
    sampling; every ``record_stride``-th step is stored in the trajectory.
    ``rwa`` selects the excitation-conserving Hamiltonian instead of the
    full Rabi one.
    """

    dt: float = 0.005
    record_stride: int = 10
    rwa: bool = False

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, the matching states, and the final state.

    ``states[k]`` is the amplitude vector at ``times[k]``; ``final`` is the
    exact end-of-window state regardless of the sampling stride.
    """

    times: np.ndarray
    states: np.ndarray
    final: np.ndarray

    def norms2(self) -> np.ndarray:
        """Squared norm at every sample (decays under cavity loss)."""
        return np.sum(np.abs(self.states) ** 2, axis=1)


def _one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def matrix_exponential(a: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * a) by scaling-and-squaring with a shifted Taylor kernel.

    Accurate to better than 1e-12 relative error for ``norm(scale * a)`` up
    to about 10; larger norms are handled by additional squarings.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        b = scale * a
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix has non-finite entries")
    dim = b.shape[0]
    eye = np.eye(dim, dtype=complex)

    mu = np.trace(b) / dim  # trace shift keeps the Taylor sum well-conditioned
    b = b - mu * eye
    norm = _one_norm(b)
    squarings = max(0, math.ceil(math.log2(norm / _TAYLOR_THETA))) if norm > _TAYLOR_THETA else 0
    c = b / (2**squarings)

    result = eye + c
    term = c.copy()
    for k in range(2, _MAX_TAYLOR_TERMS):
        term = term @ c / k
        result += term
        if _one_norm(term) <= 1e-16 * _one_norm(result):
            break
    for _ in range(squarings):
        result = result @ result
    return np.exp(mu) * result


def _expm_apply(k_matrix: np.ndarray, psi: np.ndarray, scale: complex, norm_bound: float) -> np.ndarray:
    """Apply exp(scale * k_matrix) to a vector via sub-stepped Taylor sums."""
    substeps = max(1, math.ceil(abs(scale) * norm_bound / _TAYLOR_THETA))
    h = scale / substeps
    out = psi
    for _ in range(substeps):
        acc = out.copy()
        term = out
        for j in range(1, _MAX_TAYLOR_TERMS):
            term = (h / j) * (k_matrix @ term)
            acc += term
            if np.abs(term).max() <= 1e-16 * np.abs(acc).max():
                break
        out = acc
    return out


def generators(params: ModelParams, rwa: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift generator K0 = H0 - (i/2) kappa a^dag a and the unit controls V1, V2.

    The generator at couplings (g1, g2) is ``k0 + g1 * v1 + g2 * v2``; with
    ``rwa=True`` the controls keep only their excitation-conserving part.
    """
    k0 = drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params)
    v1 = coupling_operator(1, params, rwa=rwa)
    v2 = coupling_operator(2, params, rwa=rwa)
    return k0, v1, v2


def _check_initial(state0: np.ndarray, params: ModelParams) -> np.ndarray:
    state0 = np.asarray(state0, dtype=complex)
    if state0.shape != (params.dim,):
        raise ValueError(f"state has shape {state0.shape}, expected ({params.dim},)")
    norm2 = float(np.vdot(state0, state0).real)
    if abs(norm2 - 1.0) > 1e-6:
        raise ValueError(f"initial state is not normalized, |psi|^2 = {norm2}")
    return state0


def propagate(
    state0: np.ndarray,
    schedule,
    params: ModelParams,
    window: tuple[float, float],
    opts: PropagationOptions | None = None,
) -> Trajectory:
    """Evolve ``state0`` under the scheduled couplings over ``window``.

    Parameters
    ----------
    state0 : ndarray
        Normalized initial amplitude vector.
    schedule : GaussianPair | PiecewiseConstantSchedule
        Anything with a ``values(t) -> (g1, g2)`` method.
    params : ModelParams
        System constants; ``params.kappa`` sets the cavity loss.
    window : (t_begin, t_end)
        Finite integration window.
    opts : PropagationOptions, optional
        Stepper settings (defaults when omitted).

    Returns
    -------
    Trajectory
        Sampled states and the unnormalized final state, whose norm loss is
        the population lost through the cavity.
    """
    opts = opts or PropagationOptions()
    state0 = _check_initial(state0, params)
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1)) or not t1 > t0:
        raise ValueError(f"window must be finite with t_end > t_begin, got {window}")

    k0, v1, v2 = generators(params, opts.rwa)
    n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    h = (t1 - t0) / n_steps
    n0, nv1, nv2 = _one_norm(k0), _one_norm(v1), _one_norm(v2)

    psi = state0
    times = [t0]
    states = [psi]
    for i in range(n_steps):
        t_mid = t0 + (i + 0.5) * h
        g1, g2 = schedule.values(t_mid)
        if not (math.isfinite(g1) and math.isfinite(g2)):
            raise IntegrationError(f"schedule produced non-finite couplings at t={t_mid}")
        k = k0 + g1 * v1 + g2 * v2
        psi = _expm_apply(k, psi, -1j * h, n0 + abs(g1) * nv1 + abs(g2) * nv2)
        if (i + 1) % opts.record_stride == 0 or i == n_steps - 1:
            times.append(t0 + (i + 1) * h)
            states.append(psi)
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("state became non-finite during propagation")
    return Trajectory(np.array(times), np.array(states), psi)


def propagate_piecewise(
    state0: np.ndarray,
    sched,
    params: ModelParams,
    opts: PropagationOptions | None = None,
) -> tuple[Trajectory, list[np.ndarray]]:
    """Evolve under a piecewise-constant schedule, one exact exponential per bin.

    Returns the trajectory sampled at every bin edge together with the list
    of per-bin propagators U_k = exp(-i K(g1_k, g2_k) dt), in application
    order, for reuse by the gradient engine.
    """
    opts = opts or PropagationOptions()
    state0 = _check_initial(state0, params)
    if sched.bins < 1:
        raise ValueError("schedule has no bins")

    k0, v1, v2 = generators(params, opts.rwa)
    psi = state0
    times = [sched.t_start]
    states = [psi]
    propagators = []
    for k in range(sched.bins):
        gen = k0 + sched.values1[k] * v1 + sched.values2[k] * v2
        u = matrix_exponential(gen, -1j * sched.dt)
        propagators.append(u)
        psi = u @ psi
        times.append(sched.t_start + (k + 1) * sched.dt)
        states.append(psi)
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("state became non-finite during propagation")
    return Trajectory(np.array(times), np.array(states), psi), propagators
