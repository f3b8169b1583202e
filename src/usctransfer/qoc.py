"""Gradient-based optimization of piecewise-constant coupling schedules.

The objective is the transfer efficiency F = |<target| U_M ... U_1 |initial>|^2
with per-bin propagators U_k = exp(-i K(g1_k, g2_k) dt).  Gradients are exact
(GRAPE, Khaneja et al., J. Magn. Reson. 172, 296 (2005)).  K conserves the
excitation parity, so :func:`objective_and_gradient` works on the two parity
blocks of :func:`model.parity_blocks` separately and skips a block that the
initial or the target state leaves empty.  Per block, the generators of all
bins are diagonalized together, K_k = V diag(lam) V^-1, which yields U_k and,
through the divided differences of exp(-i lam dt), the exact dU_k/dg
(de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).  K is
non-Hermitian and has exceptional points where V is singular; a bin whose
eigenbasis is ill-conditioned takes U_k and dU_k/dg from the Frechet
derivative of the matrix exponential instead (``scipy.linalg.expm_frechet``,
Al-Mohy & Higham 2009).  All adjoint quantities are plain operator products,
never inverses of U.

The bounded ascent itself is delegated to L-BFGS-B on -F; every iterate
respects the amplitude bounds exactly and the multi-restart loop keeps the
best schedule found.  :func:`objective` propagates with the dense
exponential of :func:`dynamics.propagate_piecewise`, so it and the
finite-difference gradient built on it are an independent oracle for the
exact gradient; both are public so they can be re-run as a health check at
any time.  Per-bin exponentials need no step; the model is the keyword ``rwa``.

:func:`optimize` runs every loaded OpenBLAS on one thread and restores the
previous thread counts when it returns.  A second BLAS thread does not speed
up the 18-dim block algebra, and once L-BFGS-B has woken scipy's OpenBLAS
worker, that worker spins between iterations for the whole run, about
doubling the CPU time for the same wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._blas import single_blas_thread
from .dynamics import _check_initial, generators, propagate_piecewise
from .metrics import transfer_efficiency
from .model import ModelParams, parity_blocks, superposition_initial, superposition_target
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


# A bin whose eigenvector matrix has |V|_1 |V^-1|_1 above this bound (near an
# exceptional point of K) takes its propagator and derivatives from expm_frechet.
_EIG_COND_MAX = 1e2


def _block_pass(
    k0: np.ndarray,
    controls: tuple[np.ndarray, np.ndarray],
    values: tuple[np.ndarray, np.ndarray],
    dt: float,
    phi0: np.ndarray,
    chi_end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward pass on one parity block.

    ``k0`` and ``controls`` are the block's drift generator and unit
    controls, ``values`` the per-bin couplings, ``phi0`` and ``chi_end`` the
    block's parts of the initial and the target state.  Returns the final
    block state and the (2, M) array of <chi_k| dU_k/dg_jk |phi_k>, with
    phi_k the state entering bin k and <chi_k| = <target| U_M-1 ... U_k+1.
    """
    from scipy.linalg import expm_frechet  # imported here so the CLI starts without scipy

    g1, g2 = (np.asarray(v)[:, None, None] for v in values)
    gens = k0 + g1 * controls[0] + g2 * controls[1]
    m = gens.shape[0]
    lam, vec = np.linalg.eig(gens)
    vinv = np.linalg.inv(vec)
    cond = np.abs(vec).sum(axis=1).max(axis=1) * np.abs(vinv).sum(axis=1).max(axis=1)
    fallback = np.flatnonzero(cond > _EIG_COND_MAX)
    # keep the batched arithmetic finite; these bins are overwritten below
    vec[fallback] = vinv[fallback] = np.eye(k0.shape[0])

    a = -1j * dt * lam
    e = np.exp(a)
    us = vec @ (e[:, :, None] * vinv)
    # U = V diag(e) V^-1 gives dU/dg = V [D o (V^-1 Vj V)] V^-1 with the
    # divided differences D_ij = -i dt (e_i - e_j)/(a_i - a_j), written as
    # -i dt e_j expm1(a_i - a_j)/(a_i - a_j) and equal to -i dt e_i where a_i = a_j
    delta = a[:, :, None] - a[:, None, :]
    ratio = np.ones_like(delta)
    split = delta != 0
    ratio[split] = np.expm1(delta[split]) / delta[split]
    divided = -1j * dt * e[:, None, :] * ratio

    frechet = {}
    for k in fallback:
        u, du1 = expm_frechet(-1j * dt * gens[k], -1j * dt * controls[0])
        du2 = expm_frechet(-1j * dt * gens[k], -1j * dt * controls[1], compute_expm=False)
        us[k] = u
        frechet[k] = (du1, du2)

    phis = np.empty((m + 1, phi0.size), dtype=complex)
    phis[0] = phi0
    for k in range(m):
        phis[k + 1] = us[k] @ phis[k]
    chis = np.empty((m, chi_end.size), dtype=complex)
    chis[m - 1] = chi_end
    for k in range(m - 2, -1, -1):
        chis[k] = us[k + 1].conj().T @ chis[k + 1]

    # <chi|dU/dg|phi> = sum_ij conj(b_i) D_ij (V^-1 Vj V)_ij c_j with
    # b = V^dag chi and c = V^-1 phi, rewritten as sum_pq Y_pq (Vj)_pq with
    # Y = V^-T X V^T and X_ij = conj(b_i) D_ij c_j, so one Y serves both controls
    b = (vec.conj().transpose(0, 2, 1) @ chis[:, :, None])[:, :, 0]
    c = (vinv @ phis[:-1, :, None])[:, :, 0]
    x = b.conj()[:, :, None] * divided * c[:, None, :]
    y = vinv.transpose(0, 2, 1) @ x @ vec.transpose(0, 2, 1)
    terms = np.array([np.einsum("kpq,pq->k", y, v) for v in controls])
    for k, dus in frechet.items():
        terms[:, k] = [np.vdot(chis[k], du @ phis[k]) for du in dus]
    return phis[m], terms


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
    """Efficiency and its exact gradient in one forward/backward pass per parity block."""
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
    for block in parity_blocks(params):
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
    error) pairs.  The input 0.6|g1> + 0.8|e1> has weight in both parity
    blocks, so the check covers the gradient of each.
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
