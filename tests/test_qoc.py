"""Objective, exact gradient, and the bounded schedule optimization."""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import usctransfer.qoc as qoc_mod
from usctransfer import (
    IntegrationError,
    ModelParams,
    OptimizationConfig,
    OptimizationResult,
    PiecewiseConstantSchedule,
    PropagationOptions,
    basis_state,
    finite_difference_gradient,
    gradient_check,
    objective,
    objective_and_gradient,
    optimize,
    superposition_initial,
    superposition_target,
)
from usctransfer._blas import single_blas_thread
from usctransfer.model import block_generators, coupling_operator, drift_hamiltonian, number_operator

from conftest import reciprocal_runs, reciprocal_schedule

PARAMS = ModelParams(kappa=0.005, n_max=2)
INITIAL = superposition_initial(0.0, 1.0, PARAMS)
TARGET = superposition_target(0.0, 1.0, PARAMS)


def use_cpus(monkeypatch, count):
    """Let optimize see ``count`` usable CPUs: with 1 it runs its restarts in process, with more it forks them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def ascend_from(start, config, params, initial, target, rwa=False):
    """One ascent from the schedule ``start``, reported as optimize reports its best restart.

    optimize's first start is always the Gaussian pair, so a test that needs
    another start runs the single ascent, ``qoc._ascend``, from it.
    """
    lo, hi = 0.0, config.g0
    with single_blas_thread():
        res, trace = qoc_mod._ascend(start, np.clip(start.stacked(), lo, hi), config, params, initial, target, rwa)
        best = start.with_values(np.clip(res.x, lo, hi))
        fresh = objective(best, params, initial, target, rwa=rwa)
    history = [(i, *point) for i, point in enumerate(trace, 1)]
    return OptimizationResult(best, fresh, history, bool(res.success))


def random_schedule(seed, bins=5, duration=5.0, bounds=(0.0, 0.3)):
    rng = np.random.default_rng(seed)
    lo, hi = bounds
    vals = rng.uniform(lo + 0.02, hi - 0.02, 2 * bins)
    return PiecewiseConstantSchedule(0.0, duration / bins, vals[:bins], vals[bins:])


def frechet_reference(sched, params, initial, target, rwa=False):
    """F and its gradient from per-bin dense expm and expm_frechet on the full space.

    Built from the model primitives, independent of the library's generator
    builder, conserved blocks and eigendecomposition.
    """
    k0 = drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params)
    controls = [coupling_operator(i, params, rwa=rwa) for i in (1, 2)]
    m, dt = sched.bins, sched.dt
    us, dus = [], []
    for k in range(m):
        a = -1j * dt * (k0 + sched.values1[k] * controls[0] + sched.values2[k] * controls[1])
        us.append(scipy.linalg.expm(a))
        dus.append([scipy.linalg.expm_frechet(a, -1j * dt * v, compute_expm=False) for v in controls])
    phis = [np.asarray(initial, dtype=complex)]
    for u in us:
        phis.append(u @ phis[-1])
    chis = [None] * m
    chis[m - 1] = np.asarray(target, dtype=complex)
    for k in range(m - 2, -1, -1):
        chis[k] = us[k + 1].conj().T @ chis[k + 1]
    overlap = np.vdot(target, phis[m])
    grad = [
        2.0 * np.real(np.conj(overlap) * np.vdot(chis[k], dus[k][j] @ phis[k]))
        for j in range(2)
        for k in range(m)
    ]
    return float(abs(overlap) ** 2), np.array(grad)


def openblas_thread_controls():
    """(get, set) of the thread count of each scipy-bundled OpenBLAS in this process."""
    import ctypes

    import scipy.optimize  # noqa: F401  loads scipy's OpenBLAS, as optimize does

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            controls.append((get, put))
    return controls


class TestObjective:
    def test_zero_schedule_cannot_transfer(self):
        sched = PiecewiseConstantSchedule(0.0, 2.0, [0.0, 0.0], [0.0, 0.0])
        assert objective(sched, PARAMS, INITIAL, TARGET) == 0.0

    def test_invariant_under_appended_free_bins(self):
        # the target is an eigenstate of the uncoupled Hamiltonian, so extra
        # zero-coupling lossless evolution only rotates its phase
        params = ModelParams(kappa=0.0, n_max=2)
        initial = superposition_initial(0.0, 1.0, params)
        target = superposition_target(0.0, 1.0, params)
        sched = random_schedule(5)
        base = objective(sched, params, initial, target)
        padded = PiecewiseConstantSchedule(
            0.0,
            sched.dt,
            np.concatenate([sched.values1, [0.0, 0.0]]),
            np.concatenate([sched.values2, [0.0, 0.0]]),
        )
        np.testing.assert_allclose(objective(padded, params, initial, target), base, atol=1e-12)

    def test_gaussian_samples_reproduce_reference_efficiency(self):
        # fine piecewise sampling of the calibrated Gaussian protocol must
        # agree with the smooth-schedule integrator at the reference point
        from usctransfer import GaussianPair, integration_window, propagate

        params = ModelParams(kappa=0.005, n_max=8)
        initial = superposition_initial(0.0, 1.0, params)
        target = superposition_target(0.0, 1.0, params)
        width = 25.0
        pair = GaussianPair(g0=0.3, T=width, tau=0.7 * width)
        t0, t1 = integration_window(pair)
        bins = 1200
        dt = (t1 - t0) / bins
        mids = t0 + (np.arange(bins) + 0.5) * dt
        sampled = PiecewiseConstantSchedule(
            t0, dt,
            [pair.values(t)[0] for t in mids],
            [pair.values(t)[1] for t in mids],
        )
        f_sampled = objective(sampled, params, initial, target)
        assert 0.93 <= f_sampled <= 0.97
        smooth = propagate(initial, pair, params, (t0, t1))
        f_smooth = float(abs(np.vdot(target, smooth.final)) ** 2)
        assert abs(f_sampled - f_smooth) < 1e-3

    def test_matches_sin_squared_toy(self):
        # single bin, single control, no loss: F = sin^2(g * dt)
        params = ModelParams(kappa=0.0, n_max=1)
        initial = superposition_initial(0.0, 1.0, params)
        photon_target = basis_state(1, 0, 0, params)
        for g, dt in ((0.2, 3.0), (0.1, 7.0)):
            sched = PiecewiseConstantSchedule(0.0, dt, [g], [0.0])
            f = objective(sched, params, initial, photon_target, rwa=True)
            np.testing.assert_allclose(f, np.sin(g * dt) ** 2, atol=1e-12)


class TestGradient:
    def test_zero_schedule_zero_gradient(self):
        # overlap prefactor vanishes at the base point
        sched = PiecewiseConstantSchedule(0.0, 2.5, [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(objective_and_gradient(sched, PARAMS, INITIAL, TARGET)[1], 0.0)

    # kappa = 0.5 makes K strongly non-Hermitian; the default kappa keeps the
    # bare seed ids
    @pytest.mark.parametrize(
        "kappa, seed",
        [pytest.param(0.005, seed, id=str(seed)) for seed in (0, 1, 2)]
        + [pytest.param(0.5, seed, id=f"kappa0.5-{seed}") for seed in (0, 1, 2)],
    )
    def test_matches_finite_differences(self, kappa, seed):
        params = ModelParams(kappa=kappa, n_max=2)
        initial = superposition_initial(0.0, 1.0, params)
        target = superposition_target(0.0, 1.0, params)
        sched = random_schedule(seed)
        exact = objective_and_gradient(sched, params, initial, target)[1]
        approx = finite_difference_gradient(sched, params, initial, target)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 1e-5

    def test_gradient_check_helper(self):
        results = gradient_check(PARAMS, seeds=(3, 4))
        assert all(rel < 1e-5 for _, rel in results)

    def test_stationary_at_sin_squared_optimum(self):
        params = ModelParams(kappa=0.0, n_max=1)
        initial = superposition_initial(0.0, 1.0, params)
        photon_target = basis_state(1, 0, 0, params)
        dt = 4.0
        g_star = np.pi / (2 * dt)
        sched = PiecewiseConstantSchedule(0.0, dt, [g_star], [0.0])
        f, grad = objective_and_gradient(sched, params, initial, photon_target, rwa=True)
        np.testing.assert_allclose(f, 1.0, atol=1e-12)
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-10)

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    def test_no_shared_block_gives_exact_zeros(self, rwa):
        # the odd-parity input and the vacuum target share no conserved block
        vacuum = basis_state(0, 0, 0, PARAMS)
        f, grad = objective_and_gradient(random_schedule(9), PARAMS, INITIAL, vacuum, rwa=rwa)
        assert f == 0.0 and grad.shape == (10,) and not np.any(grad)

    def test_mismatched_target_rejected(self):
        with pytest.raises(ValueError):
            objective_and_gradient(random_schedule(9), PARAMS, INITIAL, TARGET[:-4])

    def test_objective_and_gradient_consistent(self):
        sched = random_schedule(9)
        f, grad = objective_and_gradient(sched, PARAMS, INITIAL, TARGET)
        np.testing.assert_allclose(f, objective(sched, PARAMS, INITIAL, TARGET), rtol=1e-14)
        np.testing.assert_array_equal(grad, objective_and_gradient(sched, PARAMS, INITIAL, TARGET)[1])


def oracle_case(kappa=0.005, alpha=0.0, values=None, rwa=False, n_max=8, seed=0, bins=6, duration=12.0):
    params = ModelParams(kappa=kappa, n_max=n_max)
    beta = np.sqrt(1.0 - alpha**2)
    if values is None:
        values = np.random.default_rng(seed).uniform(0.0, 0.3, 2 * bins)
    values = np.asarray(values, dtype=float)
    bins = values.size // 2
    sched = PiecewiseConstantSchedule(0.0, duration / bins, values[:bins], values[bins:])
    return (
        sched,
        params,
        superposition_initial(alpha, beta, params),
        superposition_target(alpha, beta, params),
        rwa,
    )


def assert_matches_frechet_reference(sched, params, initial, target, rwa):
    f, grad = objective_and_gradient(sched, params, initial, target, rwa=rwa)
    f_ref, grad_ref = frechet_reference(sched, params, initial, target, rwa)
    assert abs(f - f_ref) <= 1e-12
    np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)


class TestScalingThreshold:
    def test_gradient_plan_is_independent_of_the_stepper(self):
        # the gradient scales every bin below 1-norm 0.5 and takes the Taylor
        # degree at 0.5, whatever substep bound the stepper plans with, so a
        # change of the stepper's bound leaves every gradient bit alone.  The
        # package imports qoc with dynamics, so qoc is reloaded after the change
        code = (
            "import importlib, usctransfer.dynamics as d, usctransfer.qoc as q\n"
            "d._TAYLOR_THETA = {theta}\n"
            "q = importlib.reload(q)\n"
            "from usctransfer import ModelParams, PiecewiseConstantSchedule, superposition_initial, superposition_target\n"
            "p = ModelParams(n_max=2)\n"
            "s = PiecewiseConstantSchedule(0.0, 1.25, [0.1, 0.4, 0.2], [0.3, 0.2, 0.5])\n"
            "f, g = q.objective_and_gradient(s, p, superposition_initial(0, 1, p), superposition_target(0, 1, p))\n"
            "print(q._PS_THETA, q._PS_WEIGHTS.tobytes().hex(), repr(f), g.tobytes().hex())\n"
        )
        outputs = set()
        for theta in (0.25, 0.5, 1.0, 4.0):
            proc = subprocess.run([sys.executable, "-c", code.format(theta=theta)], capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs.pop().split()[0] == "0.5"

    @staticmethod
    def two_bins(g):
        params = ModelParams(n_max=2)
        sched = PiecewiseConstantSchedule(0.0, 2.5, [g, g / 2], [g / 3, g])
        return sched, params, superposition_initial(0.6, 0.8, params), superposition_target(0.6, 0.8, params)

    @pytest.mark.parametrize("g", [1e15, 1e16])
    def test_a_bin_past_the_squaring_limit_raises_naming_its_bound(self, g):
        # at about 50 squarings the norm grew with the overlap, and F came back as 2.43 and 1.03e7 without an error
        limit = f"of {qoc_mod._MAX_SQUARINGS} squarings (largest coupling {g:.3g}, kappa 0.005)"
        with pytest.raises(IntegrationError, match="^the gradient cannot run: the bin generator bound dt ") as error:
            objective_and_gradient(*self.two_bins(g))
        assert str(error.value).endswith(limit)

    def test_the_squaring_limit_admits_its_last_count_and_refuses_the_next(self, monkeypatch):
        # couplings across the limit either run with at most _MAX_SQUARINGS squarings or raise; both occur
        taken = []
        squares = qoc_mod._Workspace.squares
        monkeypatch.setattr(qoc_mod._Workspace, "squares", lambda ws, s: taken.append(s) or squares(ws, s))
        refused = 0
        for g in np.geomspace(1e5, 1e7, 25):
            try:
                f = objective_and_gradient(*self.two_bins(g))[0]
            except IntegrationError:
                refused += 1
            else:
                assert 0.0 <= f <= 1.0
        assert max(taken) == qoc_mod._MAX_SQUARINGS and 0 < refused < 25


class TestGradientOracle:
    """The adjoint Taylor gradient against per-bin Frechet derivatives on the full space."""

    @pytest.mark.parametrize(
        "case",
        [
            # RWA single-excitation block at g1 = kappa/4 is an exceptional
            # point (defective K, no eigenbasis); the Taylor exponential and
            # its adjoint do not depend on one
            pytest.param(
                dict(rwa=True, alpha=0.6, values=[0.00125] * 6 + [0.0] * 6), id="rwa-exceptional-point"
            ),
            pytest.param(dict(values=[0.0] * 12), id="all-zero-bins"),
            # exactly degenerate eigenvalues in the zero bins next to coupled ones
            pytest.param(
                dict(alpha=0.6, values=[0.0, 0.2, 0.0, 0.1, 0.25, 0.0, 0.0, 0.0, 0.15, 0.3, 0.0, 0.05]),
                id="zero-bins-between-coupled",
            ),
            pytest.param(dict(alpha=0.6, seed=1), id="both-blocks"),
            pytest.param(dict(kappa=0.5, seed=2), id="kappa0.5"),
            # the optimizer's shape: 20 bins of 1.25, 5 squarings at the default n_max
            pytest.param(dict(bins=20, duration=25.0), id="optimize-ref-shape"),
            pytest.param(dict(alpha=0.6, bins=20, duration=25.0), id="optimize-ref-shape-both-blocks"),
            # bins short enough for no squaring (s = 0), then for one
            pytest.param(dict(bins=4, duration=0.05, n_max=2), id="no-squaring"),
            pytest.param(dict(bins=4, duration=1.0, n_max=2), id="one-squaring"),
        ],
    )
    def test_matches_frechet_reference(self, case):
        assert_matches_frechet_reference(*oracle_case(**case))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        kappa=st.floats(0.0, 1.0),
        n_max=st.sampled_from([2, 3, 4]),
        rwa=st.booleans(),
        alpha=st.sampled_from([0.0, 0.6]),
        bins=st.integers(1, 6),
    )
    def test_property_matches_frechet_reference(self, data, kappa, n_max, rwa, alpha, bins):
        value = st.one_of(st.just(0.0), st.just(kappa / 4), st.floats(0.0, 0.3))
        values = data.draw(st.lists(value, min_size=2 * bins, max_size=2 * bins))
        assert_matches_frechet_reference(
            *oracle_case(kappa=kappa, alpha=alpha, values=values, rwa=rwa, n_max=n_max)
        )

    def test_gradient_check_catches_a_dropped_parity_block(self, monkeypatch):
        # the health check's input fills both blocks, so an even-block
        # gradient that goes missing shows up against finite differences
        def without_even(params, rwa, numbers):
            assert not rwa and numbers == (0, 1)
            return block_generators(params, rwa, numbers[1:])

        monkeypatch.setattr(qoc_mod, "block_generators", without_even)
        results = gradient_check(PARAMS, seeds=(3,))
        assert all(rel > 1e-3 for _, rel in results)

    @pytest.mark.parametrize("dropped", [0, 1], ids=["vacuum-block", "single-excitation-block"])
    def test_gradient_check_catches_a_dropped_excitation_block(self, dropped, monkeypatch):
        # under RWA the check's input fills the 1-dim vacuum block and the
        # 3-dim single-excitation block; losing either one shows up
        def without(params, rwa, numbers):
            assert rwa and numbers == (0, 1)
            return block_generators(params, rwa, numbers[:dropped] + numbers[dropped + 1 :])

        monkeypatch.setattr(qoc_mod, "block_generators", without)
        results = gradient_check(PARAMS, seeds=(3,), rwa=True)
        assert all(rel > 1e-3 for _, rel in results)


class TestReciprocity:
    # conftest.reciprocal_runs: F maps onto the run with the qubits exchanged
    # and the bins reversed, and so does its gradient, dF/dg1_k = dF'/dg2_(M-1-k)
    # and dF/dg2_k = dF'/dg1_(M-1-k): the gradient vector read backwards.
    # The detuned qubits make the identity sharp on the drift, the random
    # bins are asymmetric, and F stays well away from 0
    PARAMS = ModelParams(eps1=1.0, eps2=0.9)
    SCHED = random_schedule(10, bins=20, duration=25.0)

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.6, 0.8), (0.6, 0.48 + 0.64j)])
    def test_objective_and_gradient_map(self, rwa, alpha, beta):
        runs = list(zip((self.SCHED, reciprocal_schedule(self.SCHED)), reciprocal_runs(self.PARAMS, alpha, beta)))
        (f, grad), (f_rev, grad_rev) = (objective_and_gradient(s, *run, rwa=rwa) for s, run in runs)
        assert f > 0.1
        assert abs(f - f_rev) <= 1e-13
        np.testing.assert_allclose(grad, grad_rev[::-1], rtol=0, atol=1e-12 * np.abs(grad).max())
        replayed = [objective(s, *run, rwa=rwa) for s, run in runs]
        assert abs(replayed[0] - replayed[1]) <= 1e-13


def evaluate(case):
    sched, params, initial, target, rwa = case
    return objective_and_gradient(sched, params, initial, target, rwa=rwa)


REUSE_CASES = [
    oracle_case(bins=20, duration=25.0),  # the optimizer's shape, 5 squarings
    # the same shape at ten times the amplitude: 7 squarings, more than any case before
    oracle_case(bins=20, duration=25.0, values=np.random.default_rng(3).uniform(0.0, 3.0, 40)),
    oracle_case(bins=4, duration=0.05, n_max=2),  # no squaring
    oracle_case(rwa=True, alpha=0.6),  # blocks of 1 and 3 dims
    oracle_case(alpha=0.6, bins=20, duration=25.0),  # two 18-dim blocks in one call
]


class TestWorkspaceReuse:
    """The gradient's reused buffers carry nothing from one evaluation into the next."""

    def test_interleaved_repeats_are_bit_identical(self):
        first = {}
        for i in [0, 1, 2, 3, 4, 0, 4, 3, 2, 1]:
            f, grad = evaluate(REUSE_CASES[i])
            if i not in first:
                first[i] = f, grad
                continue
            assert f == first[i][0]
            np.testing.assert_array_equal(grad, first[i][1])

    def test_mutating_a_returned_gradient_leaves_the_next_call(self):
        f, grad = evaluate(REUSE_CASES[0])
        expected = grad.copy()
        grad[:] = np.nan
        again = evaluate(REUSE_CASES[0])
        assert again[0] == f
        np.testing.assert_array_equal(again[1], expected)

    def test_concurrent_threads_get_the_serial_results(self):
        # both threads evaluate the 20-bin shape, each with its own values, and one other shape
        shares = [[REUSE_CASES[0], REUSE_CASES[2]], [REUSE_CASES[1], REUSE_CASES[3]]]
        serial = [[evaluate(case) for case in cases] for cases in shares]
        barrier = threading.Barrier(len(shares))
        seen = [[] for _ in shares]

        def work(cases, out):
            barrier.wait()
            for _ in range(10):
                out.append([evaluate(case) for case in cases])

        threads = [threading.Thread(target=work, args=(cases, out)) for cases, out in zip(shares, seen)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for expected, rounds in zip(serial, seen):
            assert len(rounds) == 10
            for results in rounds:
                for (f, grad), (f_ref, grad_ref) in zip(results, expected):
                    assert f == f_ref
                    np.testing.assert_array_equal(grad, grad_ref)

    def test_held_workspaces_stay_bounded(self):
        for bins in range(1, 9):
            evaluate(oracle_case(bins=bins, duration=float(bins), n_max=2))
        assert len(qoc_mod._local.workspaces) == qoc_mod._WORKSPACES_HELD


class TestOptimize:
    def toy_problem(self):
        params = ModelParams(kappa=0.0, n_max=1)
        initial = superposition_initial(0.0, 1.0, params)
        photon_target = basis_state(1, 0, 0, params)
        return params, initial, photon_target

    @pytest.mark.parametrize("g0", [0.0, 0.3, 1e3])
    def test_gaussian_start_lies_in_the_box_without_a_clip(self, g0):
        # g0 exp(-x^2) with exp(-x^2) <= 1 cannot round above g0, at the peaks and far out in the tails
        for duration, bins in [(1e-3, 1), (5.0, 2), (25.0, 20), (3.0, 1000), (1e4, 7)]:
            config = OptimizationConfig(duration=duration, g0=g0, bins=bins)
            tau = qoc_mod.DEFAULT_TAU_RATIO * duration / 3.0
            mids = (np.arange(bins) + 0.5) * (duration / bins)
            extremes = 0.5 * duration + np.array([-tau, tau, 0.0, -1e100, 1e100, np.nextafter(tau, 0.0)])
            for centres in (mids, extremes):
                start = qoc_mod._gaussian_sampled_start(config, centres)
                assert start.shape == (2 * centres.size,)
                assert start.min() >= 0.0 and start.max() <= g0, (duration, bins)
            assert start.max() == g0  # the extremes hit both peaks: the box is tight

    def test_stationary_start_converges_immediately(self):
        params, initial, photon_target = self.toy_problem()
        dt = 4.0
        g_star = np.pi / (2 * dt)
        start = PiecewiseConstantSchedule(0.0, dt, [g_star], [0.0])
        config = OptimizationConfig(duration=dt, g0=1.0, bins=1, restarts=1)
        result = ascend_from(start, config, params, initial, photon_target, rwa=True)
        assert len(result.iteration_history) <= 2
        np.testing.assert_allclose(result.best_fidelity, 1.0, atol=1e-12)
        np.testing.assert_allclose(result.best_schedule.values1[0], g_star, atol=1e-9)

    def test_toy_problem_reaches_optimum_from_random(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=6.0, g0=0.5, bins=2, seed=1, restarts=3)
        values = np.random.default_rng(0).uniform(0.0, 0.5, size=4)
        start = PiecewiseConstantSchedule(0.0, 3.0, values[:2], values[2:])
        result = ascend_from(start, config, params, initial, photon_target, rwa=True)
        assert result.best_fidelity > 1 - 1e-8

    def test_iterates_respect_bounds(self, monkeypatch):
        use_cpus(monkeypatch, 1)  # the spy records in this process
        params, initial, photon_target = self.toy_problem()
        seen = []
        original = objective_and_gradient

        def spy(sched, *args, **kwargs):
            seen.append(sched.stacked())
            return original(sched, *args, **kwargs)

        import usctransfer.qoc as qoc_mod

        g0 = 0.2
        config = OptimizationConfig(duration=8.0, g0=g0, bins=3, seed=2, restarts=2)
        old = qoc_mod.objective_and_gradient
        qoc_mod.objective_and_gradient = spy
        try:
            optimize(config, params, initial, photon_target, rwa=True)
        finally:
            qoc_mod.objective_and_gradient = old
        stacked = np.array(seen)
        assert stacked.min() >= 0.0 - 1e-15 and stacked.max() <= g0 + 1e-15

    def test_best_fidelity_is_fresh_evaluation(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, g0=0.4, bins=2, seed=3, restarts=1)
        result = optimize(config, params, initial, photon_target, rwa=True)
        fresh = objective(result.best_schedule, params, initial, photon_target, rwa=True)
        assert abs(result.best_fidelity - fresh) < 1e-10

    def test_bit_for_bit_reproducible(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, g0=0.4, bins=3, seed=12, restarts=2)
        first = optimize(config, params, initial, photon_target, rwa=True)
        second = optimize(config, params, initial, photon_target, rwa=True)
        assert first.best_fidelity == second.best_fidelity
        np.testing.assert_array_equal(
            first.best_schedule.stacked(), second.best_schedule.stacked()
        )

    def test_history_records_iterations(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, g0=0.4, bins=2, seed=4, restarts=1)
        result = optimize(config, params, initial, photon_target, rwa=True)
        iters = [entry[0] for entry in result.iteration_history]
        assert iters == sorted(iters)
        assert all(np.isfinite(entry[1]) and np.isfinite(entry[2]) for entry in result.iteration_history)

    def test_restarts_merge_the_single_ascents(self):
        # each start rerun alone: the first from restarts=1, the random ones in the order
        # the seeded generator draws them.  At this iteration cap only the second start
        # converges, and it ends clearly ahead of the other two.
        params, initial, photon_target = self.toy_problem()
        g0, m, seed = 0.4, 2, 0
        config = OptimizationConfig(duration=5.0, g0=g0, bins=m, seed=seed, restarts=3, max_iters=6)
        merged = optimize(config, params, initial, photon_target, rwa=True)
        single = dataclasses.replace(config, restarts=1)
        runs = [optimize(single, params, initial, photon_target, rwa=True)]
        rng = np.random.default_rng(seed)
        for _ in range(config.restarts - 1):
            values = rng.uniform(0.0, g0, 2 * m)
            start = PiecewiseConstantSchedule(0.0, config.duration / m, values[:m], values[m:])
            runs.append(ascend_from(start, single, params, initial, photon_target, rwa=True))
        points = [point[1:] for run in runs for point in run.iteration_history]
        assert merged.iteration_history == [(i, *point) for i, point in enumerate(points, 1)]
        best = runs[int(np.argmax([run.best_fidelity for run in runs]))]
        assert best is runs[1] and [run.converged for run in runs] == [False, True, False]
        np.testing.assert_array_equal(merged.best_schedule.stacked(), best.best_schedule.stacked())
        assert merged.converged == best.converged

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    def test_pooled_restarts_match_serial_bit_for_bit(self, rwa, monkeypatch):
        config = OptimizationConfig(duration=5.0, g0=0.3, bins=3, seed=5, restarts=3, max_iters=40)
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            results.append(optimize(config, PARAMS, INITIAL, TARGET, rwa=rwa))
        serial, pooled = results
        np.testing.assert_array_equal(pooled.best_schedule.stacked(), serial.best_schedule.stacked())
        assert pooled.best_fidelity == serial.best_fidelity
        assert pooled.iteration_history == serial.iteration_history
        assert pooled.converged == serial.converged

    def test_pooled_ascents_run_blas_on_one_thread(self, monkeypatch):
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no scipy-bundled OpenBLAS loaded")

        def spy(*args, **kwargs):  # runs in the forked workers, whose error reaches optimize's caller
            if (counts := [get() for get, _ in controls]) != [1] * len(controls):
                raise AssertionError(f"an ascent ran OpenBLAS on {counts} threads")
            # a count set inside the worker reads 1 too, but it re-creates the
            # BLAS thread pool that the fork shut down, and that thread spins
            if os.path.isdir("/proc/self/task") and (threads := len(os.listdir("/proc/self/task"))) != 1:
                raise AssertionError(f"an ascent's worker runs {threads} OS threads")
            return objective_and_gradient(*args, **kwargs)

        monkeypatch.setattr(qoc_mod, "objective_and_gradient", spy)
        use_cpus(monkeypatch, 2)
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, g0=0.4, bins=2, seed=4, restarts=2)
        original = [get() for get, _ in controls]
        try:
            for _, put in controls:
                put(2)  # a count the pin has to change, also on a one-core host
            optimize(config, params, initial, photon_target, rwa=True)
        finally:
            for (_, put), threads in zip(controls, original):
                put(threads)

    def test_pins_the_blas_that_its_first_call_loads(self):
        # in a fresh process scipy's OpenBLAS is loaded by optimize itself; the pin must cover it
        code = """
import ctypes, json, os
import usctransfer.qoc as qoc

os.sched_getaffinity = lambda pid: {0}  # one usable CPU: the restarts run in process, where the spy records
from usctransfer import ModelParams, OptimizationConfig, basis_state, superposition_initial

def thread_counts():
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        for suffix in ("", "64_"):
            get = getattr(ctypes.CDLL(path), f"scipy_openblas_get_num_threads{suffix}", None)
            if get is not None:
                counts[path] = get()
    return counts

before, seen = thread_counts(), []
original = qoc.objective_and_gradient

def spy(*args, **kwargs):
    seen.append(thread_counts())
    return original(*args, **kwargs)

qoc.objective_and_gradient = spy
params = ModelParams(kappa=0.0, n_max=1)
config = OptimizationConfig(duration=5.0, g0=0.4, bins=2, restarts=1)
qoc.optimize(config, params, superposition_initial(0.0, 1.0, params), basis_state(1, 0, 0, params), rwa=True)
print(json.dumps({"before": before, "seen": seen}))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}  # a count the pin has to change, also on one core
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        if not report["seen"] or set(report["seen"][0]) <= set(report["before"]):
            pytest.skip("optimize loaded no scipy-bundled OpenBLAS of its own")
        assert all(set(counts.values()) == {1} for counts in report["seen"])

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_runs_blas_on_one_thread_and_restores(self, fails, monkeypatch):
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no scipy-bundled OpenBLAS loaded")
        seen = []

        def spy(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            if fails:
                raise IntegrationError("injected")
            return objective_and_gradient(*args, **kwargs)

        monkeypatch.setattr(qoc_mod, "objective_and_gradient", spy)
        use_cpus(monkeypatch, 1)  # the spy records in this process
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, g0=0.4, bins=2, seed=4, restarts=2)
        original = [get() for get, _ in controls]
        try:
            for _, put in controls:
                put(2)  # a count the pin has to change, also on a one-core host
            if fails:
                with pytest.raises(IntegrationError):
                    optimize(config, params, initial, photon_target, rwa=True)
            else:
                optimize(config, params, initial, photon_target, rwa=True)
            after = [get() for get, _ in controls]
        finally:
            for (_, put), threads in zip(controls, original):
                put(threads)
        assert seen and all(counts == [1] * len(controls) for counts in seen)
        assert after == [2] * len(controls)

    def test_lossless_not_worse_than_lossy(self):
        # losses can only reduce the achievable overlap here; verified, not assumed
        lossy = ModelParams(kappa=0.005, n_max=2)
        lossless = ModelParams(kappa=0.0, n_max=2)
        config = OptimizationConfig(duration=10.0, g0=0.3, bins=8, seed=5, restarts=2, max_iters=150)
        results = {}
        for params in (lossy, lossless):
            initial = superposition_initial(0.0, 1.0, params)
            target = superposition_target(0.0, 1.0, params)
            results[params.kappa] = optimize(config, params, initial, target).best_fidelity
        assert results[0.0] >= results[0.005]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizationConfig(duration=-1.0, g0=0.3)
        with pytest.raises(ValueError):
            OptimizationConfig(duration=1.0, g0=-0.3)

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"duration": float("inf")}, "duration must be finite"),
            ({"g0": float("nan")}, "g0 must be finite"),
            ({"g0": float("inf")}, "g0 must be finite"),
            ({"max_iters": 0}, "max_iters must be at least 1"),
        ],
        ids=["inf-duration", "nan-g0", "inf-g0", "no-iterations"],
    )
    def test_non_finite_or_empty_config_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            OptimizationConfig(**{"duration": 1.0, "g0": 0.3, **setting})

    @pytest.mark.parametrize("bins", [0, -1])
    def test_gradient_check_needs_a_bin(self, bins):
        with pytest.raises(ValueError, match="bins must be at least 1"):
            gradient_check(PARAMS, seeds=(0,), bins=bins)


class TestRefinement:
    def test_finer_bins_no_worse(self, reference_qoc):
        # a 20-bin schedule embeds exactly into 40 bins; ascent from there
        # cannot end below the coarse optimum
        coarse = reference_qoc["result"]
        params = reference_qoc["params"]
        config = reference_qoc["config"]
        fine_values1 = np.repeat(coarse.best_schedule.values1, 2)
        fine_values2 = np.repeat(coarse.best_schedule.values2, 2)
        fine_start = PiecewiseConstantSchedule(0.0, config.duration / 40, fine_values1, fine_values2)
        fine_config = OptimizationConfig(
            duration=config.duration, g0=config.g0, bins=40,
            seed=config.seed, restarts=1, max_iters=60,
        )
        fine = ascend_from(fine_start, fine_config, params, reference_qoc["initial"], reference_qoc["target"])
        assert fine.best_fidelity >= coarse.best_fidelity - 1e-3


SCHED = random_schedule(0, bins=2)
FORMER_OPTS_SLOT = [  # each function with the positional arguments before its former ``opts``
    (objective, (SCHED, PARAMS, INITIAL, TARGET)),
    (objective_and_gradient, (SCHED, PARAMS, INITIAL, TARGET)),
    (finite_difference_gradient, (SCHED, PARAMS, INITIAL, TARGET)),
    (gradient_check, (PARAMS, (0,), 2)),
    (optimize, (OptimizationConfig(duration=5.0, g0=0.3, bins=2, restarts=1), PARAMS, INITIAL, TARGET)),
]


@pytest.mark.parametrize("fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in FORMER_OPTS_SLOT])
def test_positional_options_rejected(fn, args):
    # rwa is keyword-only: a truthy PropagationOptions bound to a positional
    # rwa would select the RWA model unseen
    with pytest.raises(TypeError):
        fn(*args, PropagationOptions())
