"""Non-Hermitian time evolution under the driven qubit-cavity generator.

The state obeys i d|psi>/dt = K(t)|psi> with K(t) = K0 + g1(t) V1 + g2(t) V2
and K0 = H0 - (i/2) kappa a^dag a.  :func:`generators` is the one place the
generator is assembled; every propagator and the gradient engine build on
it.  The stepper applies exp(-i K(t_mid) dt) per step with the controls
sampled at the step midpoint (second-order accurate for smooth schedules,
exact for constant ones).  States are never renormalized: with kappa > 0 the
squared norm decays monotonically and the loss equals the population leaked
through the cavity.

The stepper advances a stack of G states at once: state p evolves under
K0 + a_p (g1 V1 + g2 V2), so points that differ only in the coupling
amplitude a_p share one schedule, window and step grid, and each step costs
one batched product per Taylor term for all of them.  A single-state call is
the G = 1 case with a_1 = 1.

The matrix exponential uses scaling-and-squaring with a trace shift and a
Taylor kernel; for state propagation the exponential is applied directly to
the amplitude vectors, which avoids forming per-step propagators.  There the
substep count and the Taylor degree follow from a norm bound on the
generators (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
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
_TAYLOR_TOL = 2.0**-53  # Taylor remainder bound per substep, relative to the state's 1-norm


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


def _taylor_degree(x: float) -> int:
    """Smallest degree m with remainder bound e^x x^(m+1)/(m+1)! <= _TAYLOR_TOL.

    This bounds the 1-norm error of the degree-m Taylor sum of exp(B) v
    relative to |v|_1 whenever |B|_1 <= x.
    """
    degree, bound = 0, math.exp(x) * x
    while bound > _TAYLOR_TOL:
        degree += 1
        bound *= x / (degree + 1)
    return degree


def _expm_apply(gens: np.ndarray, psi: np.ndarray, scale: complex, norm_bound: float) -> np.ndarray:
    """Apply exp(scale * gens[p]) to psi[p] for every p via sub-stepped Taylor sums.

    ``gens`` has shape (G, d, d) and ``psi`` (G, d, 1); ``norm_bound`` bounds
    the 1-norm of every ``gens[p]``.  The substep count and the Taylor degree
    follow from that bound, so the sum needs no convergence test per term.
    """
    x = abs(scale) * norm_bound
    substeps = max(1, math.ceil(x / _TAYLOR_THETA))
    degree = _taylor_degree(x / substeps)
    h = scale / substeps
    for _ in range(substeps):
        acc = psi.copy()
        term = psi
        for j in range(1, degree + 1):
            term = (h / j) * (gens @ term)
            acc += term
        psi = acc
    return psi


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
    amplitudes=None,
) -> Trajectory | list[Trajectory]:
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
    amplitudes : sequence of float, optional
        Coupling amplitudes a_1..a_G.  When given, G states start from
        ``state0`` and are stepped together; state p evolves under the
        couplings ``a_p * schedule.values(t)``.  The substep count and the
        Taylor degree of every step come from the largest ``|a_p|``.

    Returns
    -------
    Trajectory or list of Trajectory
        Sampled states and the unnormalized final state, whose norm loss is
        the population lost through the cavity; with ``amplitudes``, one
        trajectory per amplitude, in order.
    """
    opts = opts or PropagationOptions()
    state0 = _check_initial(state0, params)
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1)) or not t1 > t0:
        raise ValueError(f"window must be finite with t_end > t_begin, got {window}")
    amps = np.ones(1) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    if amps.ndim != 1 or amps.size == 0:
        raise ValueError(f"amplitudes must be a non-empty 1-d sequence, got shape {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise IntegrationError(f"non-finite coupling amplitude in {amps.tolist()}")

    k0, v1, v2 = generators(params, opts.rwa)
    n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    h = (t1 - t0) / n_steps
    n0, nv1, nv2 = _one_norm(k0), _one_norm(v1), _one_norm(v2)
    a_max = float(np.abs(amps).max())
    a_col = amps[:, None, None]
    gens = np.empty((amps.size, params.dim, params.dim), dtype=complex)

    stride = opts.record_stride
    marks = [*range(stride, n_steps, stride), n_steps]  # step counts at which a sample is taken
    times = t0 + h * np.array([0, *marks])
    samples = np.empty((amps.size, times.size, params.dim), dtype=complex)
    samples[:, 0] = state0
    psi = np.repeat(state0[None, :, None], amps.size, axis=0)
    k = 1
    for i in range(n_steps):
        t_mid = t0 + (i + 0.5) * h
        g1, g2 = schedule.values(t_mid)
        if not (math.isfinite(g1) and math.isfinite(g2)):
            raise IntegrationError(f"schedule produced non-finite couplings at t={t_mid}")
        np.multiply(a_col, g1 * v1 + g2 * v2, out=gens)
        gens += k0
        psi = _expm_apply(gens, psi, -1j * h, n0 + abs(a_max * g1) * nv1 + abs(a_max * g2) * nv2)
        if i + 1 == marks[k - 1]:
            samples[:, k] = psi[:, :, 0]
            k += 1
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("state became non-finite during propagation")
    trajs = [Trajectory(times, states, states[-1]) for states in samples]
    return trajs[0] if amplitudes is None else trajs


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
