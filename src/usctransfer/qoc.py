"""Gradient-based optimization of piecewise-constant coupling schedules.

The objective is the transfer efficiency F = |<target| U_M ... U_1 |initial>|^2
with per-bin propagators U_k = exp(-i K(g1_k, g2_k) dt).  Gradients are exact
(GRAPE, Khaneja et al., J. Magn. Reson. 172, 296 (2005)).
:func:`objective_and_gradient` works separately on each block of
:func:`model.block_generators` that both the initial and the target state
occupy.  Per block, the generators of all bins are exponentiated together
by Taylor scaling-and-squaring with the block's trace shift, and the exact
dU_k/dg is the reverse-mode derivative of that same evaluation (Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).  Neither needs an
eigenbasis, which K, being non-Hermitian, lacks at its exceptional points.
All adjoint quantities are plain operator products, never inverses of U.
The pass writes its batched matrices into a workspace that each thread keeps
per (bins, block size), at most four of them, so the optimizer's repeated
evaluations of one shape allocate no large arrays: fresh ones, above glibc's
mmap threshold, cost more in page faults than the products cost to compute.

The optimization has one recipe: the first start is a counterintuitive
Gaussian pair sampled onto the bins, the others are seeded random values.
Each start is one ascent, :func:`_ascend`, in which L-BFGS-B climbs -F
with every control in [0, g0].  :func:`optimize` merges the ascents: it keeps
the first one with the highest F and numbers their traces in restart order.
:func:`objective` replays the schedule with :func:`dynamics.propagate`, one
CF4 step per bin, which is exact for constant couplings.  It and the
finite-difference gradient built on it stay an independent oracle for the
exact gradient: the stepper applies two exponentials per bin to the state,
each a Taylor sum planned on its own, while :func:`_block_pass` forms every
bin's propagator as a matrix by Paterson-Stockmeyer and squaring and
differentiates that.  The two share only the degree rule of
:func:`dynamics._taylor_degrees`.  Both oracles are public so they can be re-run
as a health check at any time.  The bins set the steps; the model is the
keyword ``rwa``.

:func:`optimize` runs every loaded OpenBLAS on one thread and restores the
previous thread counts when it returns; the worker processes it forks for
its restarts inherit that pin.  The pin is set before the fork, never in a
worker (see :mod:`_blas`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._blas import single_blas_thread
from ._pool import run_tasks
from .dynamics import IntegrationError, PropagationOptions, _check_initial, _taylor_degrees, propagate
from .metrics import transfer_efficiency
from .model import ModelParams, block_generators, occupied_blocks, superposition_initial, superposition_target
from .pulses import DEFAULT_TAU_RATIO, GaussianPair, PiecewiseConstantSchedule

__all__ = [
    "OptimizationConfig",
    "OptimizationResult",
    "objective",
    "objective_and_gradient",
    "finite_difference_gradient",
    "gradient_check",
    "optimize",
    "WorkerLostError",
]


class WorkerLostError(RuntimeError):
    """An optimize restart whose worker process died in the pool and again when it ran alone."""


# L-BFGS-B stops when the relative decrease of -F or the largest projected gradient entry falls below these
_OBJECTIVE_TOL = 1e-12
_GRADIENT_TOL = 1e-8
# central-difference step of the oracle gradient
_FD_STEP = 1e-6
# gradient_check's schedules: bins over _CHECK_DURATION, values drawn uniformly from the
# amplitude range (0, 0.3) less a 5% margin at each end
_CHECK_DURATION = 5.0
_CHECK_VALUES = (0.015, 0.285)


@dataclass(frozen=True)
class OptimizationConfig:
    """Search-space and optimizer settings for the schedule optimization.

    ``bins`` piecewise-constant values per control over ``duration``, each in
    [0, ``g0``].  The first of the ``restarts`` starts is a Gaussian
    pair compressed onto the control window; the other ``restarts - 1`` are
    uniform random values, drawn from the generator seeded with ``seed``.
    """

    duration: float
    g0: float
    bins: int = 20
    max_iters: int = 500
    seed: int = 0
    restarts: int = 5

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError(f"bins must be at least 1, got {self.bins}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        if not 0 <= self.g0 < math.inf:
            raise ValueError(f"g0 must be finite and non-negative, got {self.g0}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class OptimizationResult:
    """Best schedule found, its freshly re-evaluated fidelity, and the trace."""

    best_schedule: PiecewiseConstantSchedule
    best_fidelity: float
    iteration_history: list[tuple[int, float, float]]
    converged: bool


def objective(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> float:
    """Transfer efficiency of the piecewise-constant schedule, replayed one CF4 step per bin."""
    traj = propagate(initial, sched, params, (sched.t_start, sched.t_end), PropagationOptions(dt=sched.dt), rwa=rwa)
    return transfer_efficiency(traj.final, target)


# Each bin's Y is scaled by 2^-s to |Y|_1 < _PS_THETA, the gradient's own
# threshold, apart from the stepper's substep bound.  Every such Y takes the
# stepper's Taylor degree at _PS_THETA, whose remainder bound covers them all;
# _PS_WEIGHTS[i, j] = 1/(4i + j)!, zero above that degree, weighs Y^j in the
# Paterson-Stockmeyer chunk B_i
_PS_THETA = 0.5
_PS_WEIGHTS = 1.0 / np.array([math.factorial(j) for j in range(int(_taylor_degrees(np.array([_PS_THETA]))[0]) + 1)])
_PS_WEIGHTS = np.pad(_PS_WEIGHTS, (0, -_PS_WEIGHTS.size % 4)).reshape(-1, 4)
# the most squarings a pass takes.  Each one doubles the rounding carried by
# the squared matrices: against a 60-digit exponential (n_max 2, two bins of
# 2.5, 120 random couplings), F moved by at most 4.9e-10 at 24 squarings and
# 1.07e-9 at 25, so 24 keeps F inside the 1e-9 rule
_MAX_SQUARINGS = 24


class _Workspace:
    """The batched (bins, d, d) buffers of :func:`_block_pass` for one (bins, block size).

    Slots of Y^0..Y^p, of the Horner sums H_i, of their adjoints, the chunk
    adjoints, and the squarings R^(2^1)..R^(2^s), which grow to the largest
    ``s`` asked for.  Every other product of the pass lands in a slot that is
    dead at that time.
    """

    def __init__(self, m_bins: int, d: int) -> None:
        n, p = _PS_WEIGHTS.shape
        self.powers = np.empty((p + 1, m_bins, d, d), dtype=complex)
        self.powers[0] = np.eye(d)  # never written again
        self.horner = np.empty((n, m_bins, d, d), dtype=complex)
        self.chunks = np.empty_like(self.horner)
        self.adjoint = np.empty_like(self.powers)
        self._squares = self.horner[:0]

    def squares(self, s: int) -> np.ndarray:
        if s > len(self._squares):
            self._squares = np.empty((s, *self.horner.shape[1:]), dtype=complex)
        return self._squares[:s]


_WORKSPACES_HELD = 4  # per thread
_local = threading.local()


def _workspace(m_bins: int, d: int) -> _Workspace:
    """This thread's workspace for (bins, block size); past the bound, the least recently used one goes."""
    held = _local.__dict__.setdefault("workspaces", {})  # the most recently used last
    ws = held.pop((m_bins, d), None) or _Workspace(m_bins, d)
    held[m_bins, d] = ws
    if len(held) > _WORKSPACES_HELD:
        del held[next(iter(held))]
    return ws


def _sum_of_products(lefts: np.ndarray, rights: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out`` = sum_i lefts[i] @ rights[i], added in index order as ``(lefts @ rights).sum(axis=0)`` adds."""
    np.matmul(lefts[0], rights[0], out=out)
    for left, right in zip(lefts[1:], rights[1:]):
        np.matmul(left, right, out=tmp)
        out += tmp


def _block_pass(
    ops: np.ndarray,
    mu: complex,
    values: tuple[np.ndarray, np.ndarray],
    dt: float,
    phi0: np.ndarray,
    chi_end: np.ndarray,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward pass on one conserved block.

    ``ops`` is the block's unpadded slice of the :func:`model.block_generators`
    stack, K0 - mu, V1 and V2, and ``mu`` its trace shift; ``values`` are the
    per-bin couplings, ``phi0`` and ``chi_end`` the block's parts of the
    initial and the target state.  Returns the final block state and the
    (2, M) array of <chi_k| dU_k/dg_jk |phi_k>, with phi_k the state
    entering bin k and <chi_k| = <target| U_M-1 ... U_k+1.  A bin that
    needs more than _MAX_SQUARINGS squarings, or whose bound is not finite,
    raises :class:`IntegrationError` before any power of Y is multiplied
    out, naming the bound, the largest coupling and ``kappa``.

    U_k = exp(-i dt mu) P(Y_k)^(2^s), Y_k = -i dt (K_k - mu) / 2^s
    and P the Taylor polynomial by Paterson-Stockmeyer: Y^1..Y^p, then
    H_i = H_i+1 Y^p + B_i over the chunks B_i = sum_j<p Y^j / (ip + j)!.  In
    reverse mode (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
    (2009)), W_k = exp(-i dt mu) phi_k <chi_k| goes back through each squaring
    R -> R R as W <- R W + W R, then through the Horner steps and the powers,
    to one G_k with <chi_k| dU_k/dg_c |phi_k> = (-i dt / 2^s) tr(V_c G_k).

    The batched matrices live in this thread's :class:`_Workspace` for
    (bins, block size), one of at most four per thread, whose squaring slots
    grow to the largest ``s`` seen: about 2.4 MB at 20 bins of 18 dims.  As
    fresh arrays, they would sit above glibc's mmap threshold, and faulting
    in their zeroed pages on every call cost more than the products.  The
    products and sums are those of the plain expressions, in the same order,
    so the results are bit-identical to them; only the per-bin states and
    the returned arrays are allocated per call.
    """
    m_bins, d = len(values[0]), ops.shape[1]
    ws = _workspace(m_bins, d)
    c, (n, p) = _PS_WEIGHTS, _PS_WEIGHTS.shape  # n chunks of p powers
    powers, horner, chunks, adjoint = ws.powers, ws.horner, ws.chunks, ws.adjoint  # powers: Y^0..Y^p
    tmp = adjoint[0]  # Y^0 = I needs no adjoint, so its slot is scratch throughout
    y = powers[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound fails the check below
        np.matmul(-1j * dt * np.array([np.ones(m_bins), *values]).T, ops.reshape(3, -1), out=y.reshape(m_bins, -1))
        abs_y = np.abs(y, out=tmp.reshape(-1).view(float)[: y.size].reshape(y.shape))  # in tmp's first half
        norm = float(abs_y.sum(axis=1).max())
    if not norm < _PS_THETA * 2.0**_MAX_SQUARINGS:  # a NaN fails too
        raise IntegrationError(f"the gradient cannot run: the bin generator bound dt |K|_1 reaches {norm:.3g}, not "
                               f"below the {_PS_THETA * 2.0**_MAX_SQUARINGS:.3g} of {_MAX_SQUARINGS} squarings "
                               f"(largest coupling {float(np.abs(values).max()):.3g}, kappa {kappa:.3g})")
    s = max(0, math.frexp(norm / _PS_THETA)[1])
    y *= 0.5**s  # now |Y|_1 < _PS_THETA
    for j in range(2, p + 1):
        np.matmul(powers[j - 1], y, out=powers[j])
    # real weights act on the real and the imaginary parts alike: one real product
    np.matmul(c, powers[:p].reshape(p, -1).view(float), out=horner.reshape(n, -1).view(float))
    for i in range(n - 2, -1, -1):
        horner[i] += np.matmul(horner[i + 1], powers[p], out=tmp)
    squares = [horner[0], *ws.squares(s)]
    for prev, square in zip(squares, squares[1:]):
        np.matmul(prev, prev, out=square)
    phase = np.exp(-1j * dt * mu)
    us = squares[-1]  # scaled in place: the last square (H_0 when s = 0) is not read again
    us *= phase

    phis, chis = np.empty((2, m_bins + 1, d), dtype=complex)  # chis[k] is the bra <chi_k|
    phis[0], chis[m_bins - 1] = phi0, chi_end.conj()
    for k in range(m_bins):
        np.dot(us[k], phis[k], out=phis[k + 1])
    for k in range(m_bins - 2, -1, -1):
        np.dot(chis[k + 1], us[k + 1], out=chis[k])

    # the adjoints of H_i, hence of B_i; W and its squaring steps use the free chunk slots
    w, rw, wr = chunks[:3]
    np.multiply(phis[:-1, :, None], phase * chis[:-1, None, :], out=w)
    for r in reversed(squares[:-1]):
        np.matmul(r, w, out=rw)
        np.matmul(w, r, out=wr)
        np.add(rw, wr, out=w)
    for i in range(n - 1):
        np.matmul(powers[p], chunks[i], out=chunks[i + 1])
    np.matmul(c[:, 1:].T, chunks.reshape(n, -1).view(float), out=adjoint[1:p].reshape(p - 1, -1).view(float))
    _sum_of_products(chunks[:-1], horner[1:], adjoint[p], tmp)
    for j in range(p, 1, -1):  # Y^j = Y^j-1 Y
        adjoint[j - 1] += np.matmul(y, adjoint[j], out=tmp)
    g = chunks[0]  # the chunk adjoints are spent
    _sum_of_products(adjoint[2:], powers[1:p], g, tmp)
    g += adjoint[1]
    terms = -1j * dt * 0.5**s * (np.swapaxes(ops[1:], 1, 2).reshape(2, -1) @ g.reshape(m_bins, -1).T)
    return phis[m_bins], terms


def objective_and_gradient(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> tuple[float, np.ndarray]:
    """Efficiency and exact gradient (g1 bins, then g2 bins): per block, a batched Taylor exponential and adjoint."""
    initial = _check_initial(initial, params)
    target = np.asarray(target, dtype=complex)
    if target.shape != initial.shape:
        raise ValueError(f"dimension mismatch: target {target.shape} vs state {initial.shape}")
    values = (sched.values1, sched.values2)
    blocks, mu, ops = block_generators(params, rwa, occupied_blocks(params, rwa, initial, target))
    final = np.zeros(params.dim, dtype=complex)
    terms = np.zeros((2, sched.bins), dtype=complex)
    for b, idx in enumerate(blocks):
        n = idx.size
        block = (ops[:, b, :n, :n], mu[b], values, sched.dt, initial[idx], target[idx], params.kappa)
        final[idx], block_terms = _block_pass(*block)
        terms += block_terms
    if not np.all(np.isfinite(final)):
        raise IntegrationError("propagation produced non-finite amplitudes")
    efficiency = transfer_efficiency(final, target)
    overlap = np.vdot(target, final)
    grad = 2.0 * np.real(np.conj(overlap) * terms).ravel()
    if not np.all(np.isfinite(grad)):
        raise IntegrationError("gradient evaluation produced non-finite entries")
    return efficiency, grad


def finite_difference_gradient(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> np.ndarray:
    """Central-difference gradient with step 1e-6, the independent oracle for the exact one."""
    x0 = sched.stacked()
    grad = np.empty(x0.size)
    for j in range(x0.size):
        x_plus, x_minus = x0.copy(), x0.copy()
        x_plus[j] += _FD_STEP
        x_minus[j] -= _FD_STEP
        f_plus = objective(sched.with_values(x_plus), params, initial, target, rwa=rwa)
        f_minus = objective(sched.with_values(x_minus), params, initial, target, rwa=rwa)
        grad[j] = (f_plus - f_minus) / (2 * _FD_STEP)
    return grad


def gradient_check(
    params: ModelParams,
    seeds: Sequence[int] = (0, 1, 2),
    bins: int = 5,
    *,
    rwa: bool = False,
) -> list[tuple[int, float]]:
    """Relative error between exact and finite-difference gradients.

    One random schedule per seed, ``bins`` bins over duration 5 with values
    in [0.015, 0.285]; returns (seed, norm-wise relative error) pairs.  The
    input 0.6|g1> + 0.8|e1> has weight in two conserved blocks under either
    model, so the check covers the gradient of each.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    if min(seeds, default=0) < 0:
        raise ValueError(f"seeds must be non-negative, got {list(seeds)}")
    initial = superposition_initial(0.6, 0.8, params)
    target = superposition_target(0.6, 0.8, params)
    results = []
    for seed in seeds:
        vals = np.random.default_rng(seed).uniform(*_CHECK_VALUES, size=2 * bins)
        sched = PiecewiseConstantSchedule(0.0, _CHECK_DURATION / bins, vals[:bins], vals[bins:])
        exact = objective_and_gradient(sched, params, initial, target, rwa=rwa)[1]
        approx = finite_difference_gradient(sched, params, initial, target, rwa=rwa)
        rel = float(np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-30))
        results.append((seed, rel))
    return results


def _gaussian_sampled_start(config: OptimizationConfig, bin_mids: np.ndarray) -> np.ndarray:
    """Counterintuitive Gaussian pair compressed onto the control window.

    Width duration/3 centers the whole pulse-pair structure inside the
    window and keeps the start in the basin of the STIRAP-like optimum;
    much stronger compression lands in poor intuitive-ordered basins.
    Its values lie in [0, g0] exactly: g0 exp(-x^2) cannot round above g0.
    """
    width = config.duration / 3.0
    pair = GaussianPair(g0=config.g0, T=width, tau=DEFAULT_TAU_RATIO * width)
    return np.concatenate(pair.values(bin_mids - 0.5 * config.duration))


def _ascend(template, x0, config: OptimizationConfig, params, initial, target, rwa) -> tuple:
    """One L-BFGS-B ascent from ``x0``: scipy's result (``fun`` is -F) and the trace.

    The trace holds, per iteration, the (F, |grad|) of its last evaluation.
    """
    from scipy.optimize import minimize  # imported here so the CLI starts without scipy

    evaluations, trace = [], []

    def negated(x):
        f, g = objective_and_gradient(template.with_values(x), params, initial, target, rwa=rwa)
        evaluations.append((f, float(np.linalg.norm(g))))
        return -f, -g

    res = minimize(
        negated,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, config.g0)] * (2 * config.bins),
        callback=lambda _xk: trace.append(evaluations[-1]),
        options={
            "maxiter": config.max_iters,
            "ftol": _OBJECTIVE_TOL,
            "gtol": _GRADIENT_TOL,
        },
    )
    return res, trace


def optimize(
    config: OptimizationConfig,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> OptimizationResult:
    """Maximize the transfer efficiency over piecewise schedules with every control in [0, g0].

    Runs ``config.restarts`` L-BFGS-B ascents and keeps the best.  The first
    starts from the Gaussian pair compressed onto the control window; the
    rest start from random values.
    The reported fidelity is re-evaluated from the returned schedule, not
    read from optimizer state.  The ascents and the re-evaluation run every
    loaded OpenBLAS on one thread (see the module docstring); the previous
    thread counts are restored on return, also when an ascent raises.
    The ascents run on one forked worker process per restart, up to the
    CPUs this process may use (in process when that is one, so
    ``taskset -c 0`` runs them serially); the workers inherit the
    one-thread pin, and the result is the same bit for bit.  A restart whose
    worker dies, in the pool and again alone, raises
    :class:`WorkerLostError` naming it.

    Parameters
    ----------
    config : OptimizationConfig
        Discretization, amplitude bound g0, iteration budget and seeding.
    params : ModelParams
        System constants (losses included in the propagation).
    initial, target : ndarray
        Normalized source and target amplitude vectors.
    rwa : bool, keyword-only
        Optimize under the rotating-wave controls instead of the Rabi ones.

    Returns
    -------
    OptimizationResult
        Best schedule, its fidelity, the (iteration, F, |grad|) trace and
        whether the best restart terminated by tolerance rather than budget.
    """
    import scipy.optimize  # noqa: F401  loads scipy's OpenBLAS, which the pin covers only if loaded on entry

    m = config.bins
    dt = config.duration / m
    template = PiecewiseConstantSchedule(0.0, dt, np.zeros(m), np.zeros(m))

    first = _gaussian_sampled_start(config, (np.arange(m) + 0.5) * dt)
    rng = np.random.default_rng(config.seed)
    starts = [first, *(rng.uniform(0.0, config.g0, size=2 * m) for _ in range(config.restarts - 1))]

    ascend = partial(_ascend, template, config=config, params=params, initial=initial, target=target, rwa=rwa)
    with single_blas_thread():
        ascents = run_tasks(ascend, starts)
        if lost := [i for i, ascent in enumerate(ascents, 1) if isinstance(ascent, Exception)]:
            raise WorkerLostError(f"optimize restart(s) {', '.join(map(str, lost))} of {len(starts)} lost: the worker "
                                  f"process died in the pool and again alone ({ascents[lost[0] - 1]})")
        best = max((res for res, _ in ascents), key=lambda res: -res.fun)  # the first of the best
        best_schedule = template.with_values(np.clip(best.x, 0.0, config.g0))
        fresh = objective(best_schedule, params, initial, target, rwa=rwa)
    points = (point for _, trace in ascents for point in trace)
    history = [(i, *point) for i, point in enumerate(points, 1)]
    return OptimizationResult(best_schedule, fresh, history, bool(best.success))
