"""Gradient-based optimization of piecewise-constant coupling schedules.

The objective is the transfer efficiency F = |<target| U_M ... U_1 |initial>|^2
with per-bin propagators U_k = exp(-i K(g1_k, g2_k) dt).  Gradients are exact
(GRAPE, Khaneja et al., J. Magn. Reson. 172, 296 (2005)).
:func:`objective_and_gradient` works on the blocks of
:func:`model.conserved_blocks` separately (the two parity sectors under the
Rabi model, the excitation-number sectors under RWA) and skips a block that
the initial or the target state leaves empty.  Per block, the generators of
all bins are exponentiated together by Taylor scaling-and-squaring with a
trace shift, and the exact dU_k/dg is the reverse-mode derivative of that
same evaluation (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
(2009)).  Neither needs an eigenbasis, which K, being non-Hermitian, lacks
at its exceptional points.  All adjoint quantities are plain operator
products, never inverses of U.

The bounded ascent itself is delegated to L-BFGS-B on -F; every iterate
respects the amplitude bounds exactly and the multi-restart loop keeps the
best schedule found.  :func:`objective` propagates with the dense
exponential of :func:`dynamics.propagate_piecewise`, so it and the
finite-difference gradient built on it are an independent oracle for the
exact gradient; both are public so they can be re-run as a health check at
any time.  Per-bin exponentials need no step; the model is the keyword ``rwa``.

:func:`optimize` runs every loaded OpenBLAS on one thread and restores the
previous thread counts when it returns.  A second BLAS thread does not speed
up the block algebra (at most 18-dim), and once L-BFGS-B has woken scipy's
OpenBLAS worker, that worker spins between iterations for the whole run,
about doubling the CPU time for the same wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._blas import single_blas_thread
from .dynamics import _TAYLOR_THETA, _check_initial, _taylor_plan, generators, propagate_piecewise
from .metrics import transfer_efficiency
from .model import ModelParams, conserved_blocks, superposition_initial, superposition_target
from .pulses import DEFAULT_TAU_RATIO, GaussianPair, PiecewiseConstantSchedule

__all__ = [
    "NumericError",
    "OptimizationConfig",
    "OptimizationResult",
    "objective",
    "gradient",
    "objective_and_gradient",
    "finite_difference_gradient",
    "gradient_check",
    "optimize",
]

# L-BFGS-B stops when the relative decrease of -F or the largest projected gradient entry falls below these
_OBJECTIVE_TOL = 1e-12
_GRADIENT_TOL = 1e-8


class NumericError(RuntimeError):
    """A non-finite value appeared inside an objective or gradient evaluation."""


@dataclass(frozen=True)
class OptimizationConfig:
    """Search-space and optimizer settings for the schedule optimization.

    ``bins`` piecewise-constant values per control over ``duration``, within
    amplitude ``bounds``.  ``init`` selects the first start: a Gaussian pair
    compressed onto the control window, a constant mid-bounds schedule, or
    uniform random values; the remaining ``restarts - 1`` starts are always
    random, drawn from the seeded generator.
    """

    duration: float
    bounds: tuple[float, float]
    bins: int = 20
    max_iters: int = 500
    seed: int = 0
    init: str = "gaussian-sampled"
    restarts: int = 5

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        lo, hi = self.bounds
        if lo > hi:
            raise ValueError(f"bounds must be ordered, got {self.bounds}")
        if self.init not in ("gaussian-sampled", "constant", "random"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class OptimizationResult:
    """Best schedule found, its freshly re-evaluated fidelity, and the trace."""

    best_schedule: PiecewiseConstantSchedule
    best_fidelity: float
    iteration_history: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False


def objective(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> float:
    """Transfer efficiency of the piecewise-constant schedule."""
    traj = propagate_piecewise(initial, sched, params, rwa=rwa)
    return transfer_efficiency(traj.final, target)


# Every Y with |Y|_1 < _TAYLOR_THETA takes the degree that the stepper's plan gives at
# _TAYLOR_THETA, whose remainder bound covers them all; _PS_WEIGHTS[i, j] = 1/(4i + j)!,
# zero above that degree, weighs Y^j in the Paterson-Stockmeyer chunk B_i
_PS_WEIGHTS = 1.0 / np.array([math.factorial(j) for j in range(int(_taylor_plan(np.array([_TAYLOR_THETA]))[1][0]) + 1)])
_PS_WEIGHTS = np.pad(_PS_WEIGHTS, (0, -_PS_WEIGHTS.size % 4)).reshape(-1, 4)


def _block_pass(
    k0: np.ndarray,
    controls: tuple[np.ndarray, np.ndarray],
    values: tuple[np.ndarray, np.ndarray],
    dt: float,
    phi0: np.ndarray,
    chi_end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward pass on one conserved block.

    ``k0`` and ``controls`` are the block's drift generator and unit
    controls, ``values`` the per-bin couplings, ``phi0`` and ``chi_end`` the
    block's parts of the initial and the target state.  Returns the final
    block state and the (2, M) array of <chi_k| dU_k/dg_jk |phi_k>, with
    phi_k the state entering bin k and <chi_k| = <target| U_M-1 ... U_k+1.

    U_k = exp(-i dt mu) P(Y_k)^(2^s), mu = tr(K0)/d, Y_k = -i dt (K_k - mu) / 2^s
    and P the Taylor polynomial by Paterson-Stockmeyer: Y^1..Y^p, then
    H_i = H_i+1 Y^p + B_i over the chunks B_i = sum_j<p Y^j / (ip + j)!.  In
    reverse mode (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
    (2009)), W_k = exp(-i dt mu) phi_k <chi_k| goes back through each squaring
    R -> R R as W <- R W + W R, then through the Horner steps and the powers,
    to one G_k with <chi_k| dU_k/dg_c |phi_k> = (-i dt / 2^s) tr(V_c G_k).
    """
    m_bins, d = len(values[0]), k0.shape[0]
    mu = np.trace(k0) / d
    ops = np.stack([k0 - mu * np.eye(d), *controls])
    y = (-1j * dt * np.array([np.ones(m_bins), *values]).T @ ops.reshape(3, -1)).reshape(m_bins, d, d)
    s = max(0, math.frexp(float(np.abs(y).sum(axis=1).max()) / _TAYLOR_THETA)[1])
    y *= 0.5**s  # now |Y|_1 < _TAYLOR_THETA
    c, (n, p) = _PS_WEIGHTS, _PS_WEIGHTS.shape  # n chunks of p powers
    powers = np.empty((p + 1, m_bins, d, d), dtype=complex)  # Y^0..Y^p
    powers[0], powers[1] = np.eye(d), y
    for j in range(2, p + 1):
        np.matmul(powers[j - 1], y, out=powers[j])
    # real weights act on the real and the imaginary parts alike: one real product
    horner = (c @ powers[:p].reshape(p, -1).view(float)).view(complex).reshape(n, *y.shape)
    for i in range(n - 2, -1, -1):
        horner[i] += horner[i + 1] @ powers[p]
    squares = [horner[0]]
    for _ in range(s):
        squares.append(squares[-1] @ squares[-1])
    phase = np.exp(-1j * dt * mu)
    us = squares[-1] * phase

    phis, chis = np.empty((2, m_bins + 1, d), dtype=complex)  # chis[k] is the bra <chi_k|
    phis[0], chis[m_bins - 1] = phi0, chi_end.conj()
    for k in range(m_bins):
        np.dot(us[k], phis[k], out=phis[k + 1])
    for k in range(m_bins - 2, -1, -1):
        np.dot(chis[k + 1], us[k + 1], out=chis[k])

    w = phis[:-1, :, None] * (phase * chis[:-1, None, :])
    for r in reversed(squares[:-1]):
        w = r @ w + w @ r
    chunks = np.empty_like(horner)  # the adjoints of H_i, hence of B_i
    chunks[0] = w
    for i in range(n - 1):
        np.matmul(powers[p], chunks[i], out=chunks[i + 1])
    adjoint = np.empty_like(powers)  # of Y^0..Y^p; Y^0 = I needs none
    adjoint[1:p] = (c[:, 1:].T @ chunks.reshape(n, -1).view(float)).view(complex).reshape(p - 1, *y.shape)
    adjoint[p] = (chunks[:-1] @ horner[1:]).sum(axis=0)
    for j in range(p, 1, -1):  # Y^j = Y^j-1 Y
        adjoint[j - 1] += y @ adjoint[j]
    g = adjoint[1] + (adjoint[2:] @ powers[1:p]).sum(axis=0)
    terms = -1j * dt * 0.5**s * (np.swapaxes(ops[1:], 1, 2).reshape(2, -1) @ g.reshape(m_bins, -1).T)
    return phis[m_bins], terms


def gradient(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> np.ndarray:
    """Exact gradient of the efficiency, stacked as (all g1 bins, all g2 bins)."""
    return objective_and_gradient(sched, params, initial, target, rwa=rwa)[1]


def objective_and_gradient(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
) -> tuple[float, np.ndarray]:
    """Efficiency and its exact gradient: per conserved block, one batched Taylor exponential and its adjoint."""
    initial = _check_initial(initial, params)
    target = np.asarray(target, dtype=complex)
    if target.shape != initial.shape:
        raise ValueError(f"dimension mismatch: target {target.shape} vs state {initial.shape}")
    values = (sched.values1, sched.values2)
    if not np.all(np.isfinite(values)):
        raise ValueError("schedule has non-finite values")
    k0, v1, v2 = generators(params, rwa)
    final = np.zeros(params.dim, dtype=complex)
    terms = np.zeros((2, sched.bins), dtype=complex)
    for block in conserved_blocks(params, rwa):
        if not (np.any(initial[block]) and np.any(target[block])):
            continue
        sub = np.ix_(block, block)
        final[block], block_terms = _block_pass(
            k0[sub], (v1[sub], v2[sub]), values, sched.dt, initial[block], target[block]
        )
        terms += block_terms
    if not np.all(np.isfinite(final)):
        raise NumericError("propagation produced non-finite amplitudes")
    efficiency = transfer_efficiency(final, target)
    overlap = np.vdot(target, final)
    grad = 2.0 * np.real(np.conj(overlap) * terms).ravel()
    if not np.all(np.isfinite(grad)):
        raise NumericError("gradient evaluation produced non-finite entries")
    return efficiency, grad


def finite_difference_gradient(
    sched: PiecewiseConstantSchedule,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    h: float = 1e-6,
    *,
    rwa: bool = False,
) -> np.ndarray:
    """Central-difference gradient, the independent oracle for the exact one."""
    x0 = sched.stacked()
    grad = np.empty(x0.size)
    for j in range(x0.size):
        x_plus, x_minus = x0.copy(), x0.copy()
        x_plus[j] += h
        x_minus[j] -= h
        f_plus = objective(sched.with_values(x_plus), params, initial, target, rwa=rwa)
        f_minus = objective(sched.with_values(x_minus), params, initial, target, rwa=rwa)
        grad[j] = (f_plus - f_minus) / (2 * h)
    return grad


def gradient_check(
    params: ModelParams,
    seeds: Sequence[int] = (0, 1, 2),
    bins: int = 5,
    duration: float = 5.0,
    bounds: tuple[float, float] = (0.0, 0.3),
    h: float = 1e-6,
    *,
    rwa: bool = False,
) -> list[tuple[int, float]]:
    """Relative error between exact and finite-difference gradients.

    One random in-bounds schedule per seed; returns (seed, norm-wise relative
    error) pairs.  The input 0.6|g1> + 0.8|e1> has weight in two conserved
    blocks under either model, so the check covers the gradient of each.
    """
    initial = superposition_initial(0.6, 0.8, params)
    target = superposition_target(0.6, 0.8, params)
    lo, hi = bounds
    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        margin = 0.05 * (hi - lo)
        vals = rng.uniform(lo + margin, hi - margin, size=2 * bins)
        sched = PiecewiseConstantSchedule(
            0.0, duration / bins, vals[:bins], vals[bins:], bounds
        )
        exact = gradient(sched, params, initial, target, rwa=rwa)
        approx = finite_difference_gradient(sched, params, initial, target, h, rwa=rwa)
        rel = float(np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-30))
        results.append((seed, rel))
    return results


def _gaussian_sampled_start(config: OptimizationConfig, bin_mids: np.ndarray) -> np.ndarray:
    """Counterintuitive Gaussian pair compressed onto the control window.

    Width duration/3 centers the whole pulse-pair structure inside the
    window and keeps the start in the basin of the STIRAP-like optimum;
    much stronger compression lands in poor intuitive-ordered basins.
    """
    lo, hi = config.bounds
    g0 = hi if hi > 0 else 1.0
    width = config.duration / 3.0
    pair = GaussianPair(g0=g0, T=width, tau=DEFAULT_TAU_RATIO * width)
    centered = bin_mids - 0.5 * config.duration
    vals1 = np.array([pair.values(t)[0] for t in centered])
    vals2 = np.array([pair.values(t)[1] for t in centered])
    return np.clip(np.concatenate([vals1, vals2]), lo, hi)


def optimize(
    config: OptimizationConfig,
    params: ModelParams,
    initial: np.ndarray,
    target: np.ndarray,
    *,
    rwa: bool = False,
    initial_schedule: PiecewiseConstantSchedule | None = None,
) -> OptimizationResult:
    """Maximize the transfer efficiency over bounded piecewise schedules.

    Runs ``config.restarts`` L-BFGS-B ascents (first start per ``config.init``
    or ``initial_schedule`` when given, the rest random) and keeps the best.
    The reported fidelity is re-evaluated from the returned schedule, not
    read from optimizer state.  The ascents and the re-evaluation run every
    loaded OpenBLAS on one thread (see the module docstring); the previous
    thread counts are restored on return, also when an ascent raises.

    Parameters
    ----------
    config : OptimizationConfig
        Discretization, bounds, iteration budget and seeding.
    params : ModelParams
        System constants (losses included in the propagation).
    initial, target : ndarray
        Normalized source and target amplitude vectors.
    rwa : bool, keyword-only
        Optimize under the rotating-wave controls instead of the Rabi ones.
    initial_schedule : PiecewiseConstantSchedule, optional
        Explicit first start; must match the configured grid.

    Returns
    -------
    OptimizationResult
        Best schedule, its fidelity, the (iteration, F, |grad|) trace and
        whether the best restart terminated by tolerance rather than budget.
    """
    from scipy.optimize import minimize  # imported here so the CLI starts without scipy

    m = config.bins
    dt = config.duration / m
    lo, hi = config.bounds
    template = PiecewiseConstantSchedule(0.0, dt, np.full(m, lo), np.full(m, lo), config.bounds)

    rng = np.random.default_rng(config.seed)
    bin_mids = (np.arange(m) + 0.5) * dt
    starts = []
    for r in range(config.restarts):
        if r == 0 and initial_schedule is not None:
            if initial_schedule.bins != m or abs(initial_schedule.dt - dt) > 1e-12 * max(dt, 1.0):
                raise ValueError("initial_schedule does not match the configured grid")
            starts.append(np.clip(initial_schedule.stacked(), lo, hi))
        elif r == 0 and config.init == "gaussian-sampled":
            starts.append(_gaussian_sampled_start(config, bin_mids))
        elif r == 0 and config.init == "constant":
            starts.append(np.full(2 * m, 0.5 * (lo + hi)))
        else:
            starts.append(rng.uniform(lo, hi, size=2 * m))

    history: list[tuple[int, float, float]] = []
    iteration = 0
    best_x = None
    best_f = -np.inf
    best_converged = False

    with single_blas_thread():
        for x0 in starts:
            last_eval = {"f": np.nan, "gnorm": np.nan}

            def negated(x):
                f, g = objective_and_gradient(template.with_values(x), params, initial, target, rwa=rwa)
                last_eval["f"] = f
                last_eval["gnorm"] = float(np.linalg.norm(g))
                return -f, -g

            def record(_xk):
                nonlocal iteration
                iteration += 1
                history.append((iteration, last_eval["f"], last_eval["gnorm"]))

            res = minimize(
                negated,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=[(lo, hi)] * (2 * m),
                callback=record,
                options={
                    "maxiter": config.max_iters,
                    "ftol": _OBJECTIVE_TOL,
                    "gtol": _GRADIENT_TOL,
                },
            )
            if -res.fun > best_f:
                best_f = -res.fun
                best_x = np.clip(res.x, lo, hi)
                best_converged = bool(res.success)

        best_schedule = template.with_values(best_x)
        fresh = objective(best_schedule, params, initial, target, rwa=rwa)
    return OptimizationResult(
        best_schedule=best_schedule,
        best_fidelity=fresh,
        iteration_history=history,
        converged=best_converged,
    )
