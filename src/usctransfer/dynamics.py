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

The blocks are small (18 x 18 at the default cutoff), so the stepper's
cost is the number of numpy calls, not arithmetic, and :func:`_cf4_steps`
is arranged to make few of them.  It reads the couplings at both Gauss
nodes of every step once, before stepping, and plans the substeps and the
degree of every exponential in one vectorised pass (:func:`_taylor_plan`).
It then builds the generators of a chunk of steps with one matrix product
into a reused buffer, and :func:`_taylor_chunk` applies each exponential as
a stack of powers X^j psi, one product per power, summed with the 1/j!
weights in one contraction.  The states of a chunk go to the samples at
once, with the trace phase restored.
"""

from __future__ import annotations

import functools
import itertools
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
_CHUNK_BYTES = 2**18  # most generator bytes the stepper builds with one BLAS product
# fourth-order commutator-free Magnus weights a_1, a_2 and Gauss nodes c_1, c_2
_CF4_A = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)
_CF4_C = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


class IntegrationError(RuntimeError):
    """Propagation failed (non-finite couplings or state, or a Taylor sum that did not converge)."""


@dataclass(frozen=True)
class PropagationOptions:
    """Step of :func:`propagate`, the only function that reads it.

    The stepper takes fixed fourth-order commutator-free Magnus steps of at
    most ``dt`` (two exponentials per step, controls sampled at the two
    Gauss nodes, on the occupied parity blocks with their trace shifted
    out) and stores every step, so the default trajectory is sampled every
    0.1; at that step every transfer efficiency of the default 10 x 10 map
    is within 1e-10 of a dt = 0.0125 run.  The model is not a stepper
    setting: every propagator takes it as its ``rwa`` keyword.
    """

    dt: float = 0.1

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


def _taylor_plan(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Substep counts and Taylor degrees for a 1-d array of 1-norm bounds x = |scale| |B|_1.

    Entry i gets s_i = max(1, ceil(x_i / _TAYLOR_THETA)) substeps of the
    smallest degree m whose remainder bound e^y y^(m+1)/(m+1)! at
    y = x_i / s_i is at most _TAYLOR_TOL; that bounds the 1-norm error of
    each substep's degree-m Taylor sum of exp(B / s_i) v relative to |v|_1.
    The bound is updated term by term, y/(m+1) at a time, on all entries at
    once, with the floating-point operations of the scalar loop (``math.exp``
    included), so each degree equals the scalar one bit for bit.
    """
    substeps = np.maximum(1, np.ceil(x / _TAYLOR_THETA)).astype(int)
    x = x / substeps
    degrees = np.zeros(x.size, dtype=int)
    bound = np.fromiter(map(math.exp, x), float, x.size) * x
    live = np.flatnonzero(bound > _TAYLOR_TOL)
    while live.size:
        degrees[live] += 1
        bound[live] *= x[live] / (degrees[live] + 1)
        live = live[bound[live] > _TAYLOR_TOL]
    return substeps, degrees


def _taylor_chunk(product, gens, substeps, degrees, stacks, cur, states) -> int:
    """Apply a chunk of CF4 exponentials to the state in row 0 of power stack ``cur``.

    ``gens[f]`` is exponential f's generator already scaled to one substep,
    X = -i (h / s) K.  It is applied ``substeps[f]`` times with Taylor
    degree ``degrees[f]``: this chunk's part of the plan that
    :func:`_taylor_plan` made for every exponential before stepping.
    ``stacks`` = (rows, sums, heads) views two power stacks: ``rows[c][j]``
    is row j of stack c in the shape ``product`` multiplies by X,
    ``sums[c][m]`` pairs the weights 1/j! for j <= m with rows 0..m, and
    ``heads[c]`` is row 0.  A substep of degree m fills rows 1..m of the
    current stack with v_j = X^j v_0, one product per power, and takes
    sum_j v_j / j! as one more product into row 0 of the other stack, which
    becomes current.  Exponentials come in CF4 pairs, the right-hand factor
    first, and the state after step k is copied to ``states[k]``.  Returns
    the index of the stack that holds the state.
    """
    rows, sums, heads = stacks
    for f, (x, s, m) in enumerate(zip(gens, substeps, degrees)):
        for _ in range(s):
            power = rows[cur]
            for j in range(m):
                product(x, power[j], out=power[j + 1])
            product(*sums[cur][m], out=heads[1 - cur])
            cur = 1 - cur
        if f % 2:
            np.copyto(states[f // 2], heads[cur])
    return cur


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


def _cf4_steps(state0, schedule, times, h, params, rwa, amps) -> np.ndarray:
    """The states at ``times``, steps of length h apart, shape (G, steps + 1, dim).

    State p evolves under K0 + amps[p] (g1 V1 + g2 V2) from ``state0``.  The
    couplings at the Gauss nodes, the plan, the generator chunks and the
    power stacks live only while stepping.
    """
    (a1, a2), n_steps, g = _CF4_A, times.size - 1, amps.size
    # the couplings (g1, g2) at both Gauss nodes of every step, read once
    # and streamed into the array, without a list of pairs
    node_times = map(float, (times[:-1, None] + np.multiply(_CF4_C, h)).ravel())
    nodes = np.fromiter(itertools.chain.from_iterable(map(schedule.values, node_times)), float)
    if nodes.size != 4 * n_steps:
        raise ValueError("schedule.values(t) must return the two couplings (g1, g2)")
    nodes = nodes.reshape(n_steps, 2, 2)
    bad = ~np.isfinite(nodes).all(axis=(1, 2))
    if bad.any():
        raise IntegrationError(
            f"schedule produced non-finite couplings in the step from t={float(times[bad.argmax()])}"
        )
    # exponential f = 2 i + e of step i weighs the nodes by weights[e]; the
    # right-hand factor acts first
    weights = np.array([[a2, a1], [a1, a2]])
    u = weights[:, 0, None] * nodes[:, None, 0] + weights[:, 1, None] * nodes[:, None, 1]
    u = u.reshape(-1, 2)  # the couplings (u1, u2) of every exponential

    # the occupied parity blocks, each of dimension d
    blocks = [idx for idx in parity_blocks(params) if np.any(state0[idx])]
    k0, v1, v2 = (np.stack([op[np.ix_(idx, idx)] for idx in blocks]) for op in generators(params, rwa))
    nb, d = len(blocks), blocks[0].size
    mu = np.trace(k0, axis1=1, axis2=2) / d
    half_k0 = 0.5 * (k0 - mu[:, None, None] * np.eye(d))  # each factor's share of the shifted drift
    n0, nv1, nv2 = (max(map(_one_norm, ops)) for ops in (half_k0, v1, v2))
    a_max = float(np.abs(amps).max())
    bound = n0 + a_max * (np.abs(u[:, 0]) * nv1 + np.abs(u[:, 1]) * nv2)
    substeps, degrees = _taylor_plan(h * bound)
    scale = -1j * h / substeps
    scaled_u = scale[:, None] * u

    # the generators of a chunk of steps in one reused buffer: row (f, p) is
    # X = scale_f (a_p (u1 V1 + u2 V2) + (K0 - mu) / 2) on every block, a
    # matrix product of the coefficients and the stacked operators.  Each
    # product fills at most _CHUNK_BYTES, which keeps it below OpenBLAS's
    # threading threshold, so pool workers never start BLAS threads
    ops = np.stack([v1, v2, half_k0]).reshape(3, -1)
    rows = max(1, _CHUNK_BYTES // ops[0].nbytes)  # generator rows per product
    chunk = max(1, rows // (2 * g))  # in steps
    coef = np.empty((2 * chunk * g, 3), dtype=complex)
    gens = np.empty((2 * chunk, g * nb, d, d), dtype=complex)
    flat_gens = gens.reshape(coef.shape[0], -1)
    # two power stacks, each holding rows 0..top for every (amplitude p,
    # block b) pair in row p nb + b; the products are batched over the pairs
    # and stay small, one per pair, whatever the number of amplitudes
    top = int(degrees.max())
    stacks = np.zeros((2, g * nb, top + 1, d), dtype=complex)
    stacks[0, :, 0] = np.tile(np.concatenate([state0[idx] for idx in blocks]), g).reshape(g * nb, d)
    if g * nb == 1:  # one matrix: np.dot skips the per-call cost of the batched np.matmul
        product, mats, views = np.dot, gens[:, 0], stacks[:, 0]
        powers = [list(view) for view in views]
    else:
        product, mats, views = np.matmul, gens, stacks
        powers = [list(view.transpose(1, 0, 2)[..., None]) for view in views]
    coefs = np.array([[1.0 / math.factorial(j) for j in range(top + 1)]], dtype=complex)
    sums = [[(coefs[:, : m + 1], view[..., : m + 1, :]) for m in range(top + 1)] for view in views]
    heads = [view[..., :1, :] for view in views]
    # the trace shift comes back as the phase exp(-i h mu)^k of each block after step k
    phases = np.cumprod(np.tile(np.exp(-1j * h * mu), (n_steps, 1)), axis=0)[:, None, :, None]
    stepped = np.empty((chunk, g, nb, d), dtype=complex)  # the states after a chunk's steps
    samples = np.zeros((g, n_steps + 1, params.dim), dtype=complex)
    samples[:, 0] = state0
    substeps, degrees = substeps.tolist(), degrees.tolist()
    cur = 0
    for lo in range(0, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        f = slice(2 * lo, 2 * hi)
        n = 2 * (hi - lo)
        block_coef = coef[: n * g].reshape(n, g, 3)
        np.multiply(scaled_u[f, None], amps[:, None], out=block_coef[:, :, :2])
        block_coef[:, :, 2] = scale[f, None]
        for r in range(0, n * g, rows):
            end = min(r + rows, n * g)
            np.matmul(coef[r:end], ops, out=flat_gens[r:end])
        cur = _taylor_chunk(
            product, mats[:n], substeps[f], degrees[f], (powers, sums, heads), cur,
            stepped.reshape(chunk, *heads[0].shape),
        )
        done = stepped[: hi - lo]
        done *= phases[lo:hi]
        for b, idx in enumerate(blocks):
            samples[:, lo + 1 : hi + 1, idx] = done[:, :, b].transpose(1, 0, 2)
    return samples


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
    *,
    rwa: bool = False,
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
        The step (the default when omitted).
    amplitudes : sequence of float, optional
        Coupling amplitudes a_1..a_G.  When given, G states start from
        ``state0`` and are stepped together; state p evolves under the
        couplings ``a_p * schedule.values(t)``.  The substep count and the
        Taylor degree of every step come from the largest ``|a_p|``.
    rwa : bool, keyword-only
        Evolve under the rotating-wave controls of :func:`generators`.

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

    n_steps = max(1, math.ceil((t1 - t0) / opts.dt))
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    samples = _cf4_steps(state0, schedule, times, h, params, rwa, amps)
    if not np.all(np.isfinite(samples[:, -1])):
        raise IntegrationError("state became non-finite during propagation")
    couplings = np.array([schedule.values(t) for t in times], dtype=float)
    if not np.all(np.isfinite(couplings)):
        raise IntegrationError("schedule produced non-finite couplings at a sample time")
    peaks = _photon_peaks(times, samples, params, rwa, amps, couplings[:-1], couplings[1:])
    trajs = [Trajectory(times, states, states[-1], float(peak)) for states, peak in zip(samples, peaks)]
    return trajs[0] if amplitudes is None else trajs


def propagate_piecewise(
    state0: np.ndarray,
    sched,
    params: ModelParams,
    *,
    rwa: bool = False,
) -> Trajectory:
    """Evolve under a piecewise-constant schedule, one exact exponential per bin.

    Returns the trajectory sampled at every bin edge.  Bin k advances the
    state by U_k = exp(-i K(g1_k, g2_k) dt).  The photon peak interpolates
    each bin with that bin's generator at both of its edges, since d<n>/dt
    jumps where the couplings do.  It works on the full space with the
    Taylor exponential, which makes it the independent check of the gradient
    engine's block propagators.  The bins set the times, so it takes no step;
    ``rwa=True`` (keyword-only) replays under the rotating-wave controls.
    """
    state0 = _check_initial(state0, params)
    if sched.bins < 1:
        raise ValueError("schedule has no bins")

    k0, v1, v2 = generators(params, rwa)
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
    (peak,) = _photon_peaks(times, states[None], params, rwa, np.ones(1), bins, bins)
    return Trajectory(times, states, psi, float(peak))
