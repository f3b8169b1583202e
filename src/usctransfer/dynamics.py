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
once, after propagation and on the block states, by :func:`_photon_peaks`:
between samples <n>(t) is the cubic Hermite interpolant of the sampled
values and their exact slopes d<n>/dt = 2 Re <psi|N(-iK)psi>, so the peak
does not move with the step the way a maximum over samples does.  It is
taken over fixed blocks of samples, so its temporaries stay the size of a
block, not of the trajectory.

Each exponential is applied directly to the amplitude vectors, never
formed as a propagator; its substep count and Taylor degree follow from a
norm bound on the generators (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)).  The blocks are small (at most 18 x 18 at the default cutoff), so the
stepper's cost is the number of numpy calls, not arithmetic, and
:func:`_cf4_steps` is arranged to make few of them, each dispatch-free: the
Taylor products call numpy's C routines directly (a bound ``ndarray.dot``,
or ``np.matmul`` for a batch) with ``out`` positional, which on an 18 x 18
block takes 0.76 us per product against 1.09 us for ``np.dot(..., out=)``
on 2 cores.  :func:`propagate` reads
the schedule once, as one array: the couplings just inside both ends of
every step, for the peak, and at both Gauss nodes, for the stepper.  The
stepper plans the substeps and the degree of every exponential in one
vectorised pass (:func:`_taylor_plan`).  It then builds the generators of a
chunk of steps with one matrix product into a reused buffer, and :func:`_taylor_chunk`
applies each exponential as a stack of powers X^j psi, one product per
power, summed with the 1/j! weights in one contraction.  Each step's states
go straight into the block states that :func:`_cf4_steps` returns, and each
:class:`Trajectory` keeps them as they are: only the final states are
scattered into the full space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, basis_labels, block_generators, occupied_blocks

__all__ = [
    "IntegrationError",
    "PropagationOptions",
    "Trajectory",
    "propagate",
]

# largest 1-norm bound of one substep's X = -i (h / s) K: at 1 no Taylor term
# X^j v / j! exceeds |v|_1, so the sum rounds at the 1e-16 level
_TAYLOR_THETA = 1.0
_TAYLOR_TOL = 2.0**-53  # Taylor remainder bound per substep, relative to the state's 1-norm
# the most Taylor products one run plans, about 100 times the 97,482 of the
# default map's costliest row (t_inv 0.01); far below 2^62, so every count fits an int64
_PRODUCT_BUDGET = 1e7
_CHUNK_BYTES = 2**18  # most bytes of one temporary: a stepper BLAS product, a photon-peak block
# fourth-order commutator-free Magnus weights a_1, a_2 and Gauss nodes c_1, c_2
_CF4_A = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)
_CF4_C = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# the schedule reads of a step, in steps: just inside its start, its Gauss
# nodes, just inside its end (each step keeps its side of a jump on an edge)
_READ_AT = np.array([1e-9, *_CF4_C, 1.0 - 1e-9])


class IntegrationError(RuntimeError):
    """A run went non-finite (couplings, amplitudes, state or gradient entries) or planned more work than it may."""


@dataclass(frozen=True)
class PropagationOptions:
    """Step of :func:`propagate`.

    The stepper takes fixed fourth-order commutator-free Magnus steps of at
    most ``dt`` (two exponentials per step, controls sampled at the two
    Gauss nodes, on the occupied conserved blocks with their trace shifted
    out) and stores every step.  The default 0.1 is calibrated on the
    fastest row of the default 10 x 10 map, t_inv = 0.1;
    :func:`sweep.gaussian_row` widens it on slower rows for one-block inputs
    and states the accuracy of the map at the default.
    ``dt`` must be finite and positive.  The model is not a stepper
    setting: every propagator takes it as its ``rwa`` keyword.
    """

    dt: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution on the occupied conserved blocks, the final state and the photon peak.

    ``block_states[k, b]`` is the state at ``times[k]`` on the flat indices
    ``blocks[b]``, zero-padded to the largest block; the state never leaves
    these blocks.  ``final`` is the end-of-window state in the full space.
    ``peak_mean_photon`` is the largest <a^dag a> between the first and the
    last sample, read from the cubic Hermite interpolant of
    :func:`_photon_peaks` (NaN when not computed); it is at least the
    largest sampled value.  Every population, photon number and norm is read
    off the block states by :meth:`expect`; the full-space ``states`` are for
    callers that want the amplitudes themselves.
    """

    times: np.ndarray
    blocks: tuple[np.ndarray, ...]
    block_states: np.ndarray
    final: np.ndarray
    peak_mean_photon: float = math.nan

    @property
    def states(self) -> np.ndarray:
        """Full-space amplitude vector at every sample, built on each read."""
        return _full_space(self.blocks, self.block_states, self.final.size)

    def expect(self, diagonal) -> np.ndarray:
        """<psi|D|psi> at every sample for a diagonal observable D.

        ``diagonal`` holds D's ``dim`` entries, shape (dim,), or the entries
        of k observables as columns, shape (dim, k); the result has shape
        (samples,) or (samples, k).  A complex D is accepted when its
        imaginary part is exactly 0.  The sum runs over the occupied block
        entries only, never over the full space.
        """
        diagonal, dim = np.asarray(diagonal), self.final.size
        if np.iscomplexobj(diagonal) and np.any(diagonal.imag):
            raise ValueError("diagonal is not real: a diagonal observable has real entries")
        diagonal = np.asarray(diagonal.real, dtype=float)
        if diagonal.ndim not in (1, 2) or diagonal.shape[0] != dim:
            raise ValueError(f"diagonal has shape {diagonal.shape}, expected ({dim},) or ({dim}, k)")
        pop = np.abs(self.block_states) ** 2
        return sum(pop[:, b, : idx.size] @ diagonal[idx] for b, idx in enumerate(self.blocks))

    def norms2(self) -> np.ndarray:
        """Squared norm at every sample (decays under cavity loss)."""
        return self.expect(np.ones(self.final.size))


def _full_space(blocks, block_states: np.ndarray, dim: int) -> np.ndarray:
    """The dim-long vectors of block states of shape (..., blocks, d), zero outside the blocks."""
    full = np.zeros((*block_states.shape[:-2], dim), dtype=complex)
    for b, idx in enumerate(blocks):
        full[..., idx] = block_states[..., b, : idx.size]
    return full


def _taylor_plan(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Substep counts, as floats, and Taylor degrees for a 1-d array of 1-norm bounds x = |scale| |B|_1.

    Entry i gets s_i = max(1, ceil(x_i / _TAYLOR_THETA)) substeps of the
    :func:`_taylor_degrees` degree at y = x_i / s_i.  The counts stay floats,
    so a huge or non-finite bound plans a huge or non-finite count, which
    the caller's budget rejects, instead of wrapping in an integer cast.
    """
    substeps = np.maximum(1.0, np.ceil(x / _TAYLOR_THETA))
    return substeps, _taylor_degrees(x / substeps)


def _taylor_degrees(y: np.ndarray) -> np.ndarray:
    """Smallest Taylor degree m for each entry of a 1-d array of 1-norm bounds y = |B|_1.

    m is the least degree whose remainder bound e^y y^(m+1)/(m+1)! is at
    most _TAYLOR_TOL; that bounds the 1-norm error of the degree-m Taylor
    sum of exp(B) v relative to |v|_1.  The bound is updated term by term,
    y/(m+1) at a time, on all entries at once, with the floating-point
    operations of the scalar loop (``math.exp`` included), so each degree
    equals the scalar one bit for bit.
    """
    degrees = np.zeros(y.size, dtype=int)
    bound = np.fromiter(map(math.exp, y), float, y.size) * y
    live = np.flatnonzero(bound > _TAYLOR_TOL)
    while live.size:
        degrees[live] += 1
        bound[live] *= y[live] / (degrees[live] + 1)
        live = live[bound[live] > _TAYLOR_TOL]
    return degrees


def _taylor_chunk(bind, gens, substeps, degrees, stacks, cur, states) -> int:
    """Apply a chunk of CF4 exponentials to the state in row 0 of power stack ``cur``.

    ``gens[f]`` is exponential f's generator already scaled to one substep,
    X = -i (h / s) K.  It is applied ``substeps[f]`` times with Taylor
    degree ``degrees[f]``: this chunk's part of the plan that
    :func:`_taylor_plan` made for every exponential before stepping.
    ``bind(a)`` returns the product by ``a`` as a call ``(b, out)`` that
    writes a @ b into ``out``; it is bound once per exponential, and once
    per chunk for the weights.  ``stacks`` = (chains, sums, heads) views two
    power stacks: ``chains[c][m]`` pairs rows 0..m-1 of stack c with rows
    1..m in the shape the product multiplies by X, ``sums[c][m]`` pairs the
    weights 1/j! for j <= m with rows 0..m, and ``heads[c]`` is row 0.  A
    substep of degree m fills rows 1..m of the current stack with
    v_j = X^j v_0, one product per power, and takes sum_j v_j / j! as one
    more product into row 0 of the other stack, which becomes current.
    Exponentials come in CF4 pairs, the right-hand factor first, and the
    state after step k is copied to ``states[k]``.  Returns the index of the
    stack that holds the state.
    """
    chains, sums, heads = stacks
    weighs = [[(bind(w), rows) for w, rows in stack] for stack in sums]
    for f, (x, s, m) in enumerate(zip(gens, substeps, degrees)):
        apply = bind(x)
        for _ in range(s):
            for _ in map(apply, *chains[cur][m]):  # v_(j+1) = X v_j, for j < m
                pass
            weigh, rows = weighs[cur][m]
            weigh(rows, heads[1 - cur])
            cur = 1 - cur
        if f % 2:
            np.copyto(states[f // 2], heads[cur])
    return cur


def _photon_peaks(times, states, params, layout, amps, left, right) -> np.ndarray:
    """Peak photon number of each of G sampled trajectories, independent of the sampling.

    ``states`` holds the block states of :func:`_cf4_steps`, shape
    (G, S, blocks, d) on the blocks of the :func:`model.block_generators`
    ``layout``, and trajectory p evolved under K0 + amps[p] (g1 V1 + g2 V2).
    ``left[k]`` and ``right[k]`` are the couplings (g1, g2) in force at the
    start and at the end of the interval from ``times[k]`` to ``times[k + 1]``;
    they differ from the neighbouring interval's where the schedule jumps.
    On each interval <n>(t) is the cubic Hermite interpolant of the sampled
    <n> and its exact slope d<n>/dt = 2 Re <psi|N(-iK)psi>, and the peak is
    the largest value of these cubics.  K0 is diagonal and V1, V2 are real,
    so with psi = r + i s the slope is 2 sum_j |psi_j|^2 n_j Im K0_jj plus
    2 a g r^T [N, V] s for each control, summed over the padded block
    entries with n_j = 0 on the padding.  The samples are read a block of
    intervals at a time, sized by ``_CHUNK_BYTES``, so the working
    memory stays near one block whatever the trajectory's length.
    """
    blocks, _, (_, v1, v2) = layout
    n = np.zeros(v1.shape[:2])
    for b, idx in enumerate(blocks):
        n[b, : idx.size] = basis_labels(params)[0][idx]
    decay = -params.kappa * n * n  # 2 n_j Im K0_jj, with Im K0_jj = -kappa n_j / 2
    # [N, V]_jk = (n_j - n_k) V_jk is nonzero only where V changes the photon number
    comm = np.stack([(n[:, :, None] - n[:, None, :]) * v.real for v in (v1, v2)])
    on, rows, cols = np.nonzero(comm.any(axis=0))
    weights = 2.0 * comm[:, on, rows, cols]
    # a block of intervals at a time, each block sharing its last sample with
    # the next, so no temporary spans the trajectory.  Every value is one
    # sample's own sum or one interval's own cubic, and the maximum is exact,
    # so the peak is the same bit for bit whatever the blocks
    span = max(1, _CHUNK_BYTES // (8 * max(1, on.size)))  # intervals per block
    steps = np.diff(times)
    peaks = np.full(amps.size, -np.inf)
    for p, lo in itertools.product(range(amps.size), range(0, steps.size, span)):
        hi = min(lo + span, steps.size)
        part = states[p, lo : hi + 1]
        pop = part.real**2 + part.imag**2
        mean_n = np.einsum("bj,kbj->k", n, pop)
        drift = np.einsum("bj,kbj->k", decay, pop)
        # 2 r^T [N, V] s for V1 and V2
        coupled = np.einsum("ce,ke->ck", weights, part.real[:, on, rows] * part.imag[:, on, cols])
        a, h, lc, rc = amps[p], steps[lo:hi], left[lo:hi], right[lo:hi]
        p0, p1 = mean_n[:-1], mean_n[1:]
        m0 = h * (drift[:-1] + a * (lc[:, 0] * coupled[0, :-1] + lc[:, 1] * coupled[1, :-1]))
        m1 = h * (drift[1:] + a * (rc[:, 0] * coupled[0, 1:] + rc[:, 1] * coupled[1, 1:]))
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
        peaks[p] = np.max((peaks[p], mean_n.max(), inner.max()))  # a NaN propagates
    return peaks


def _cf4_steps(state0, nodes, times, h, layout, amps, kappa) -> np.ndarray:
    """The block states at ``times``, steps of length h apart, shape (G, steps + 1, blocks, d).

    State p evolves under K0 + amps[p] (g1 V1 + g2 V2) from ``state0`` on the
    blocks of ``layout``, with the couplings (g1, g2) at Gauss node i of step
    k in ``nodes[k, i]``.  Entry [p, k, b] is block b of state p after step
    k, phase restored and zero-padded; the plan, chunks and stacks live only
    while stepping.  A plan of more than _PRODUCT_BUDGET Taylor products, one
    per power and one per weighted sum of every substep, raises
    :class:`IntegrationError` before the first step (:func:`propagate` has
    already refused more steps than half the budget, since every step takes
    two exponentials of at least one product).
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
    # a bound or a count that overflows to inf, or an inf / inf degree, fails the budget
    with np.errstate(over="ignore", invalid="ignore"):
        bound = h * (n0 + a_max * (np.abs(u[:, 0]) * nv1 + np.abs(u[:, 1]) * nv2))
        substeps, degrees = _taylor_plan(bound)
        products = float(substeps @ (degrees + 1.0))
    if not products <= _PRODUCT_BUDGET:  # a NaN fails too
        raise IntegrationError(f"the step plan cannot run: the generator bound h |K|_1 reaches {bound.max():.3g}, "
                               f"which plans {products:.3g} Taylor products, above the budget of "
                               f"{_PRODUCT_BUDGET:.3g} (largest coupling {a_max * float(np.abs(nodes).max()):.3g}, "
                               f"kappa {kappa:.3g})")
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
    gens = np.empty((2 * chunk, g, nb, d, d), dtype=complex)
    flat_gens = gens.reshape(coef.shape[0], -1)
    samples = np.zeros((g, n_steps + 1, nb, d), dtype=complex)
    for b, idx in enumerate(blocks):
        samples[:, 0, b, : idx.size] = state0[idx]
    # two power stacks, each holding rows 0..top for every (amplitude p,
    # block b) pair; the products are batched over the pairs and stay small,
    # one per pair, whatever the number of amplitudes
    top = int(degrees.max())
    stacks = np.zeros((2, g, nb, top + 1, d), dtype=complex)
    stacks[0, :, :, 0] = samples[:, 0]
    # every product calls numpy's C routine with ``out`` positional, never
    # through np.dot's Python-level dispatch and keyword parsing
    if g * nb == 1:  # one matrix: its bound ndarray.dot skips the batched np.matmul's per-call cost
        bind, mats, views = (lambda a: a.dot), gens[:, 0, 0], stacks[:, 0, 0]
        powers = [list(view) for view in views]
    else:
        bind, mats, views = (lambda a: functools.partial(np.matmul, a)), gens, stacks
        powers = [list(np.moveaxis(view, 2, 0)[..., None]) for view in views]
    chains = [[(power[:m], power[1 : m + 1]) for m in range(top + 1)] for power in powers]
    coefs = np.array([[1.0 / math.factorial(j) for j in range(top + 1)]], dtype=complex)
    sums = [[(coefs[:, : m + 1], view[..., : m + 1, :]) for m in range(top + 1)] for view in views]
    heads = [view[..., :1, :] for view in views]
    # the trace shift comes back as the phase exp(-i h mu)^k of each block after step k
    phases = np.cumprod(np.tile(np.exp(-1j * h * mu), (n_steps, 1)), axis=0)[:, :, None]
    substeps, degrees = substeps.astype(int).tolist(), degrees.tolist()
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
        done = samples[:, lo + 1 : hi + 1]
        # step k's states, shaped as the stack heads: a view, so the kernel writes them in place
        states = done[:, :, :, None].swapaxes(0, 1).reshape(hi - lo, *heads[0].shape)
        cur = _taylor_chunk(bind, mats[:n], substeps[f], degrees[f], (chains, sums, heads), cur, states)
        done *= phases[lo:hi]
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
        The block states after every step, the unnormalized final state,
        whose norm loss is the population lost through the cavity, and the
        photon peak of :func:`_photon_peaks` with the couplings read just
        inside both ends of every step, so a schedule that jumps on a step
        edge gives each step its own side of the jump; with ``amplitudes``,
        one trajectory per amplitude, in order.
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
    if not ratio <= _PRODUCT_BUDGET / 2:  # refused before the arrays of its steps exist
        raise IntegrationError(f"the step plan cannot run: the window of {t1 - t0:.3g} at step {opts.dt:.3g} takes "
                               f"{ratio:.3g} steps of two exponentials, at least {2 * ratio:.3g} Taylor products, "
                               f"above the budget of {_PRODUCT_BUDGET:.3g}")
    n_steps = max(1, round(ratio) if math.isclose(ratio, round(ratio), rel_tol=1e-9) else math.ceil(ratio))
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    couplings = np.stack(schedule.values(times[:-1, None] + h * _READ_AT), axis=-1, dtype=float)
    if couplings.shape != (n_steps, 4, 2):
        raise ValueError("schedule.values(t) must return the two couplings (g1, g2), each of t's shape")
    if (bad := ~np.isfinite(couplings).all(axis=(1, 2))).any():
        raise IntegrationError(f"schedule produced non-finite couplings in the step from t={float(times[bad.argmax()])}")
    layout = block_generators(params, rwa, occupied_blocks(params, rwa, state0))
    block_states = _cf4_steps(state0, couplings[:, 1:3], times, h, layout, amps, params.kappa)
    if not np.all(np.isfinite(block_states[:, -1])):
        raise IntegrationError("state became non-finite during propagation")
    peaks = _photon_peaks(times, block_states, params, layout, amps, couplings[:, 0], couplings[:, 3])
    finals = _full_space(layout[0], block_states[:, -1], params.dim)
    trajs = [Trajectory(times, layout[0], *run) for run in zip(block_states, finals, peaks.tolist())]
    return trajs[0] if amplitudes is None else trajs

