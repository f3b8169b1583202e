"""Non-Hermitian time evolution under the driven qubit-cavity generator.

The state obeys i d|psi>/dt = K(t)|psi> with K(t) = K0 + g1(t) V1 + g2(t) V2
and K0 = H0 - (i/2) kappa a^dag a.  :func:`generators` is the one place the
generator is assembled; every propagator and the gradient engine build on
it.  States are never renormalized: with kappa > 0 the squared norm decays
monotonically and the loss equals the population leaked through the cavity.

The stepper is the fourth-order commutator-free Magnus scheme with two
exponentials per step (Alvermann & Fehske, J. Comput. Phys. 230, 5930
(2011); Blanes et al., Phys. Rep. 470, 151 (2009)).  With the controls
sampled at the Gauss nodes t + c_1 h and t + c_2 h, one step of length h is

    psi <- exp(-i h (a_1 K(t + c_1 h) + a_2 K(t + c_2 h)))
           exp(-i h (a_2 K(t + c_1 h) + a_1 K(t + c_2 h))) psi,

right-hand factor first, with a_1,2 = 1/4 -+ sqrt(3)/6 and
c_1,2 = 1/2 -+ sqrt(3)/6; K0 enters each factor with weight 1/2.  The scheme
is exact for constant schedules.

Every generator conserves the excitation parity, so the stepper works on the
parity blocks of :func:`model.parity_blocks` that the initial state
occupies; a pure-parity input never touches the other block, whose
amplitudes stay exactly 0.  Each block's mean diagonal mu = tr(K0_block)/d
is shifted out of K0 before the Taylor sums and restored as the phase
exp(-i h mu) after each step, which lowers the norm bound and the Taylor
degree.

The stepper advances a stack of G states at once: state p evolves under
K0 + a_p (g1 V1 + g2 V2), so points that differ only in the coupling
amplitude a_p share one schedule, window and step grid, and each
exponential costs one batched product per Taylor term for all of them and
for both blocks.  A single-state call is the G = 1 case with a_1 = 1.

Every step is a sample.  The peak photon number of a trajectory is computed
once, after propagation, by :func:`_photon_peaks`: between samples <n>(t)
is the cubic Hermite interpolant of the sampled values and their exact
slopes d<n>/dt = 2 Re <psi|N(-iK)psi>, so the peak does not move with the
step the way a maximum over samples does.

The matrix exponential uses scaling-and-squaring with a trace shift and a
Taylor kernel; for state propagation the exponential is applied directly to
the amplitude vectors, which avoids forming per-step propagators.  There the
substep count and the Taylor degree follow from a norm bound on the
generators (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, coupling_operator, drift_hamiltonian, number_operator, parity_blocks

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
# fourth-order commutator-free Magnus weights a_1, a_2 and Gauss nodes c_1, c_2
_CF4_A = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)
_CF4_C = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


class IntegrationError(RuntimeError):
    """Propagation failed (non-finite couplings or state, or a Taylor sum that did not converge)."""


@dataclass(frozen=True)
class PropagationOptions:
    """Stepper settings.

    The stepper takes fixed fourth-order commutator-free Magnus steps of at
    most ``dt`` (two exponentials per step, controls sampled at the two
    Gauss nodes, on the occupied parity blocks with their trace shifted
    out) and stores every step, so the default trajectory is sampled every
    0.1; at that step every transfer efficiency of the default 10 x 10 map
    is within 1e-10 of a dt = 0.0125 run.  ``rwa`` selects the
    excitation-conserving Hamiltonian instead of the full Rabi one.
    """

    dt: float = 0.1
    rwa: bool = False

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, the matching states, the final state and the photon peak.

    ``states[k]`` is the amplitude vector at ``times[k]``; ``final`` is the
    end-of-window state.  ``peak_mean_photon`` is the largest <a^dag a>
    between the first and the last sample, read from the cubic Hermite
    interpolant of :func:`_photon_peaks` (NaN when not computed); it is at
    least the largest sampled value.
    """

    times: np.ndarray
    states: np.ndarray
    final: np.ndarray
    peak_mean_photon: float = math.nan

    def norms2(self) -> np.ndarray:
        """Squared norm at every sample (decays under cavity loss)."""
        return np.sum(np.abs(self.states) ** 2, axis=1)


def _one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def matrix_exponential(a: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * a) by scaling-and-squaring with a shifted Taylor kernel.

    Accurate to better than 1e-12 relative error for ``norm(scale * a)`` up
    to about 10; larger norms are handled by additional squarings.  Raises
    :class:`IntegrationError` if the Taylor sum has not converged after
    ``_MAX_TAYLOR_TERMS`` terms.
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
    else:
        raise IntegrationError(f"Taylor sum did not converge in {_MAX_TAYLOR_TERMS} terms")
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


@functools.lru_cache(maxsize=32)
def generators(params: ModelParams, rwa: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift generator K0 = H0 - (i/2) kappa a^dag a and the unit controls V1, V2.

    The generator at couplings (g1, g2) is ``k0 + g1 * v1 + g2 * v2``; with
    ``rwa=True`` the controls keep only their excitation-conserving part.
    The matrices are built once per ``(params, rwa)`` and shared by every
    caller, so they are returned read-only.
    """
    k0 = drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params)
    v1 = coupling_operator(1, params, rwa=rwa)
    v2 = coupling_operator(2, params, rwa=rwa)
    for op in (k0, v1, v2):
        op.flags.writeable = False
    return k0, v1, v2


def _photon_peaks(
    times: np.ndarray,
    states: np.ndarray,
    params: ModelParams,
    rwa: bool,
    amps: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Peak photon number of each of G sampled trajectories, independent of the sampling.

    ``states`` has shape (G, S, dim), and trajectory p evolved under
    K0 + amps[p] (g1 V1 + g2 V2).  ``left[k]`` and ``right[k]`` are the
    couplings (g1, g2) in force at the start and at the end of the interval
    from ``times[k]`` to ``times[k + 1]``; they differ from the neighbouring
    interval's where the schedule jumps.  On each interval <n>(t) is the
    cubic Hermite interpolant of the sampled <n> and its exact slope
    d<n>/dt = 2 Re <psi|N(-iK)psi>, and the peak is the largest value of
    these cubics.  K0 is diagonal and V1, V2 are real, so with
    psi = r + i s the slope is 2 sum_j |psi_j|^2 n_j Im K0_jj plus
    2 a g r^T [N, V] s for each control; it is evaluated on the parity
    blocks that the first sample occupies.
    """
    k0, v1, v2 = generators(params, rwa)
    n_values = number_operator(params).diagonal().real
    occupied = np.concatenate([idx for idx in parity_blocks(params) if np.any(states[:, 0, idx])])
    n_occ = n_values[occupied]
    decay = 2.0 * n_occ * k0.diagonal()[occupied].imag
    # [N, V]_jk = (n_j - n_k) V_jk is nonzero only where V changes the photon number
    comm = np.stack([(n_occ[:, None] - n_occ) * v[np.ix_(occupied, occupied)].real for v in (v1, v2)])
    rows, cols = np.nonzero(comm.any(axis=0))
    weights = 2.0 * comm[:, rows, cols]
    mean_n, drift = np.zeros(states.shape[:2]), np.zeros(states.shape[:2])
    coupled = np.zeros((2, *states.shape[:2]))  # 2 r^T [N, V] s for V1 and V2
    # one trajectory at a time, sample axis last, keeps the temporaries small
    # and the products free of threaded BLAS calls
    for p, traj in enumerate(states):
        block = traj.T[occupied]
        pop = block.real**2 + block.imag**2
        mean_n[p] = np.einsum("j,jk->k", n_occ, pop)
        drift[p] = np.einsum("j,jk->k", decay, pop)
        coupled[:, p] = np.einsum("ce,ek->ck", weights, block.real[rows] * block.imag[cols])

    a = amps[:, None]
    h = np.diff(times)
    p0, p1 = mean_n[:, :-1], mean_n[:, 1:]
    m0 = h * (drift[:, :-1] + a * (left[:, 0] * coupled[0, :, :-1] + left[:, 1] * coupled[1, :, :-1]))
    m1 = h * (drift[:, 1:] + a * (right[:, 0] * coupled[0, :, 1:] + right[:, 1] * coupled[1, :, 1:]))
    # <n> = p0 + m0 x + c2 x^2 + c3 x^3 for x = (t - t_k) / h in [0, 1]
    c2 = 3.0 * (p1 - p0) - 2.0 * m0 - m1
    c3 = 2.0 * (p0 - p1) + m0 + m1
    # stationary points 3 c3 x^2 + 2 c2 x + m0 = 0, in the cancellation-free form
    disc = c2**2 - 3.0 * c3 * m0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(c2 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c2))
        roots = np.stack([q / (3.0 * c3), m0 / q])
    x = np.where((disc >= 0.0) & np.isfinite(roots), np.clip(roots, 0.0, 1.0), 0.0)
    inner = p0 + x * (m0 + x * (c2 + x * c3))
    return np.maximum(mean_n.max(axis=1), inner.max(axis=(0, 2)))


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
        The state after every step, the unnormalized final state, whose norm
        loss is the population lost through the cavity, and the photon peak
        of :func:`_photon_peaks` with the couplings read at the sample
        times; with ``amplitudes``, one trajectory per amplitude, in order.
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

    # stack the occupied parity blocks on the batch axis: row b*G + p holds
    # amplitude p in block b, and every block has the same dimension d
    blocks = [idx for idx in parity_blocks(params) if np.any(state0[idx])]
    k0, v1, v2 = (
        np.stack([op[np.ix_(idx, idx)] for idx in blocks]) for op in generators(params, opts.rwa)
    )
    d = blocks[0].size
    mu = np.trace(k0, axis1=1, axis2=2) / d
    half_k0 = 0.5 * (k0 - mu[:, None, None] * np.eye(d))  # each factor's share of the shifted drift
    n0, nv1, nv2 = (max(map(_one_norm, ops)) for ops in (half_k0, v1, v2))
    half_k0, v1, v2 = half_k0[:, None], v1[:, None], v2[:, None]  # broadcast over amplitudes

    n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    h = (t1 - t0) / n_steps
    phase = np.repeat(np.exp(-1j * h * mu), amps.size)[:, None, None]
    a_max = float(np.abs(amps).max())
    a_col = amps[None, :, None, None]
    gens = np.empty((len(blocks), amps.size, d, d), dtype=complex)
    flat_gens = gens.reshape(-1, d, d)
    (a1, a2), (c1, c2) = _CF4_A, _CF4_C

    times = t0 + h * np.arange(n_steps + 1)
    samples = np.zeros((amps.size, times.size, params.dim), dtype=complex)
    samples[:, 0] = state0
    psi = np.concatenate([np.tile(state0[idx, None], (amps.size, 1, 1)) for idx in blocks])
    for i in range(n_steps):
        t = t0 + i * h
        g1a, g2a = schedule.values(t + c1 * h)
        g1b, g2b = schedule.values(t + c2 * h)
        if not all(map(math.isfinite, (g1a, g2a, g1b, g2b))):
            raise IntegrationError(f"schedule produced non-finite couplings in the step from t={t}")
        for w1, w2 in ((a2, a1), (a1, a2)):  # the right-hand factor acts first
            u1, u2 = w1 * g1a + w2 * g1b, w1 * g2a + w2 * g2b
            np.multiply(a_col, u1 * v1 + u2 * v2, out=gens)
            gens += half_k0
            psi = _expm_apply(flat_gens, psi, -1j * h, n0 + a_max * (abs(u1) * nv1 + abs(u2) * nv2))
        psi *= phase
        for idx, block in zip(blocks, psi.reshape(len(blocks), amps.size, d)):
            samples[:, i + 1, idx] = block
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("state became non-finite during propagation")
    couplings = np.array([schedule.values(t) for t in times], dtype=float)
    if not np.all(np.isfinite(couplings)):
        raise IntegrationError("schedule produced non-finite couplings at a sample time")
    peaks = _photon_peaks(times, samples, params, opts.rwa, amps, couplings[:-1], couplings[1:])
    trajs = [Trajectory(times, states, states[-1], float(peak)) for states, peak in zip(samples, peaks)]
    return trajs[0] if amplitudes is None else trajs


def propagate_piecewise(
    state0: np.ndarray,
    sched,
    params: ModelParams,
    opts: PropagationOptions | None = None,
) -> Trajectory:
    """Evolve under a piecewise-constant schedule, one exact exponential per bin.

    Returns the trajectory sampled at every bin edge.  Bin k advances the
    state by U_k = exp(-i K(g1_k, g2_k) dt).  The photon peak interpolates
    each bin with that bin's generator at both of its edges, since d<n>/dt
    jumps where the couplings do.  It works on the full space with the
    Taylor exponential, which makes it the independent check of the gradient
    engine's block propagators.
    """
    opts = opts or PropagationOptions()
    state0 = _check_initial(state0, params)
    if sched.bins < 1:
        raise ValueError("schedule has no bins")

    k0, v1, v2 = generators(params, opts.rwa)
    psi = state0
    times = [sched.t_start]
    states = [psi]
    for k in range(sched.bins):
        gen = k0 + sched.values1[k] * v1 + sched.values2[k] * v2
        psi = matrix_exponential(gen, -1j * sched.dt) @ psi
        times.append(sched.t_start + (k + 1) * sched.dt)
        states.append(psi)
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("state became non-finite during propagation")
    times, states = np.array(times), np.array(states)
    bins = np.column_stack([sched.values1, sched.values2])
    (peak,) = _photon_peaks(times, states[None], params, opts.rwa, np.ones(1), bins, bins)
    return Trajectory(times, states, psi, float(peak))
