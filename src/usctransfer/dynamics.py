"""Non-Hermitian time evolution under the driven qubit-cavity generator.

The state obeys i d|psi>/dt = K(t)|psi> with K(t) = K0 + g1(t) V1 + g2(t) V2
and K0 = H0 - (i/2) kappa a^dag a, assembled once by :func:`model.generators`.
States are never renormalized: with kappa > 0 the squared norm decays
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

The stepper works on :func:`model.block_generators` of the conserved blocks
that the initial state occupies: the single-excitation RWA input is 3-dim.

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

Each exponential is applied directly to the amplitude vectors, never
formed as a propagator; its substep count and Taylor degree follow from a
norm bound on the generators (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)).  The blocks are small (at most 18 x 18 at the default cutoff), so the
stepper's cost is the number of numpy calls, not arithmetic, and
:func:`_cf4_steps` is arranged to make few of them.  :func:`propagate` reads
the schedule once, as one array: the couplings just inside both ends of
every step, for the peak, and at both Gauss nodes, for the stepper.  The
stepper plans the substeps and the degree of every exponential in one
vectorised pass (:func:`_taylor_plan`).  It then builds the generators of a
chunk of steps with one matrix product into a reused buffer, and :func:`_taylor_chunk`
applies each exponential as a stack of powers X^j psi, one product per
power, summed with the 1/j! weights in one contraction.  The states of a
chunk go to the samples at once, with the trace phase restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, block_generators, conserved_blocks, generators, number_operator

__all__ = [
    "IntegrationError",
    "PropagationOptions",
    "Trajectory",
    "propagate",
]

_TAYLOR_THETA = 0.5  # scale matrices below this 1-norm before the Taylor sum
_TAYLOR_TOL = 2.0**-53  # Taylor remainder bound per substep, relative to the state's 1-norm
_CHUNK_BYTES = 2**18  # most generator bytes the stepper builds with one BLAS product
# fourth-order commutator-free Magnus weights a_1, a_2 and Gauss nodes c_1, c_2
_CF4_A = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)
_CF4_C = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# the schedule reads of a step, in steps: just inside its start, its Gauss
# nodes, just inside its end (each step keeps its side of a jump on an edge)
_READ_AT = np.array([1e-9, *_CF4_C, 1.0 - 1e-9])


class IntegrationError(RuntimeError):
    """Propagation failed (non-finite couplings, amplitudes or state)."""


@dataclass(frozen=True)
class PropagationOptions:
    """Step of :func:`propagate`, the only function that reads it.

    The stepper takes fixed fourth-order commutator-free Magnus steps of at
    most ``dt`` (two exponentials per step, controls sampled at the two
    Gauss nodes, on the occupied conserved blocks with their trace shifted
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


def _photon_peaks(
    times: np.ndarray,
    states: np.ndarray,
    params: ModelParams,
    rwa: bool,
    blocks: tuple[np.ndarray, ...],
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
    2 a g r^T [N, V] s for each control; it is evaluated on the occupied
    conserved ``blocks``, the flat indices of :func:`model.block_generators`.
    """
    k0, v1, v2 = generators(params, rwa)
    occupied = np.concatenate(blocks)
    n_occ = number_operator(params).diagonal().real[occupied]
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


def _cf4_steps(state0, nodes, times, h, layout, amps) -> np.ndarray:
    """The states at ``times``, steps of length h apart, shape (G, steps + 1, dim).

    State p evolves under K0 + amps[p] (g1 V1 + g2 V2) from ``state0`` on the
    blocks of ``layout``, with the couplings (g1, g2) at Gauss node i of step
    k in ``nodes[k, i]``; the plan, chunks and stacks live only while stepping.
    """
    (a1, a2), n_steps, g = _CF4_A, times.size - 1, amps.size
    # exponential f = 2 i + e of step i weighs the nodes by weights[e]; the
    # right-hand factor acts first
    weights = np.array([[a2, a1], [a1, a2]])
    u = weights[:, 0, None] * nodes[:, None, 0] + weights[:, 1, None] * nodes[:, None, 1]
    u = u.reshape(-1, 2)  # the couplings (u1, u2) of every exponential

    blocks, mu, (k0, v1, v2) = layout
    nb, d = k0.shape[:2]
    half_k0 = 0.5 * k0  # each factor's share of the shifted drift
    n0, nv1, nv2 = (float(np.abs(ops).sum(axis=1).max()) for ops in (half_k0, v1, v2))  # largest block 1-norms
    a_max = float(np.abs(amps).max())
    bound = n0 + a_max * (np.abs(u[:, 0]) * nv1 + np.abs(u[:, 1]) * nv2)
    substeps, degrees = _taylor_plan(h * bound)
    scale = -1j * h / substeps
    scaled_u = scale[:, None] * u

    # the generators of a chunk of steps in one reused buffer: row (f, p) is
    # X = scale_f (a_p (u1 V1 + u2 V2) + (K0 - mu) / 2) on every block, a
    # matrix product of the coefficients and the stacked operators.  Each
    # product fills at most _CHUNK_BYTES, which keeps it below the size at
    # which OpenBLAS starts threads, so pool workers never start BLAS threads
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
    for b, idx in enumerate(blocks):
        stacks[0, b::nb, 0, : idx.size] = state0[idx]
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
    samples = np.zeros((g, n_steps + 1, state0.size), dtype=complex)
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
            samples[:, lo + 1 : hi + 1, idx] = done[:, :, b, : idx.size].transpose(1, 0, 2)
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
        Anything with a vectorised ``values(t) -> (g1, g2)`` method: given
        an array of times it returns two arrays of the same shape.  It is
        called once, with the (steps, 4) array of the times just inside
        each step's start (1e-9 of the step in), at its two Gauss nodes and
        just inside its end; a wrong shape is a ``ValueError``.
    params : ModelParams
        System constants; ``params.kappa`` sets the cavity loss.
    window : (t_begin, t_end)
        Finite integration window.
    opts : PropagationOptions, optional
        The step (the default when omitted).  The window is cut into
        ceil((t_end - t_begin) / dt) equal steps, or into the nearest whole
        number of steps when the ratio is within a relative 1e-9 of it.  A
        piecewise-constant schedule ``sched`` is therefore replayed exactly,
        one step per bin on the bin edges, by ``window=(sched.t_start,
        sched.t_end)`` and ``PropagationOptions(dt=sched.dt)``: the CF4 step
        is exact for constant couplings.
    amplitudes : sequence of float, optional
        Coupling amplitudes a_1..a_G.  When given, G states start from
        ``state0`` and are stepped together; state p evolves under the
        couplings ``a_p * schedule.values(t)``.  The substep count and the
        Taylor degree of every step come from the largest ``|a_p|``.
    rwa : bool, keyword-only
        Evolve under the rotating-wave controls of :func:`model.generators`.

    Returns
    -------
    Trajectory or list of Trajectory
        The state after every step, the unnormalized final state, whose norm
        loss is the population lost through the cavity, and the photon peak
        of :func:`_photon_peaks` with the couplings read just inside both
        ends of every step, so a schedule that jumps on a step edge gives
        each step its own side of the jump; with ``amplitudes``, one
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

    ratio = (t1 - t0) / opts.dt
    n_steps = max(1, round(ratio) if math.isclose(ratio, round(ratio), rel_tol=1e-9) else math.ceil(ratio))
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    couplings = np.stack(schedule.values(times[:-1, None] + h * _READ_AT), axis=-1, dtype=float)
    if couplings.shape != (n_steps, 4, 2):
        raise ValueError("schedule.values(t) must return the two couplings (g1, g2), each of t's shape")
    if (bad := ~np.isfinite(couplings).all(axis=(1, 2))).any():
        raise IntegrationError(f"schedule produced non-finite couplings in the step from t={float(times[bad.argmax()])}")
    occupied = tuple(b for b, idx in enumerate(conserved_blocks(params, rwa)) if state0[idx].any())
    layout = block_generators(params, rwa, occupied)
    samples = _cf4_steps(state0, couplings[:, 1:3], times, h, layout, amps)
    if not np.all(np.isfinite(samples[:, -1])):
        raise IntegrationError("state became non-finite during propagation")
    peaks = _photon_peaks(times, samples, params, rwa, layout[0], amps, couplings[:, 0], couplings[:, 3])
    trajs = [Trajectory(times, states, states[-1], float(peak)) for states, peak in zip(samples, peaks)]
    return trajs[0] if amplitudes is None else trajs

