"""Objective, exact gradient, and the bounded schedule optimization."""

import numpy as np
import pytest

from usctransfer import (
    ModelParams,
    OptimizationConfig,
    PiecewiseConstantSchedule,
    PropagationOptions,
    basis_state,
    finite_difference_gradient,
    gradient,
    gradient_check,
    objective,
    objective_and_gradient,
    optimize,
    superposition_initial,
    superposition_target,
)

PARAMS = ModelParams(kappa=0.005, n_max=2)
INITIAL = superposition_initial(0.0, 1.0, PARAMS)
TARGET = superposition_target(0.0, 1.0, PARAMS)


def random_schedule(seed, bins=5, duration=5.0, bounds=(0.0, 0.3)):
    rng = np.random.default_rng(seed)
    lo, hi = bounds
    vals = rng.uniform(lo + 0.02, hi - 0.02, 2 * bins)
    return PiecewiseConstantSchedule(0.0, duration / bins, vals[:bins], vals[bins:], bounds)


class TestObjective:
    def test_zero_schedule_cannot_transfer(self):
        sched = PiecewiseConstantSchedule(0.0, 2.0, [0.0, 0.0], [0.0, 0.0], (0.0, 0.3))
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
            sched.bounds,
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
            (0.0, 0.3),
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
            sched = PiecewiseConstantSchedule(0.0, dt, [g], [0.0], (0.0, 1.0))
            f = objective(sched, params, initial, photon_target, PropagationOptions(rwa=True))
            np.testing.assert_allclose(f, np.sin(g * dt) ** 2, atol=1e-12)


class TestGradient:
    def test_zero_schedule_zero_gradient(self):
        # overlap prefactor vanishes at the base point
        sched = PiecewiseConstantSchedule(0.0, 2.5, [0.0, 0.0], [0.0, 0.0], (0.0, 0.3))
        np.testing.assert_array_equal(gradient(sched, PARAMS, INITIAL, TARGET), 0.0)

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
        exact = gradient(sched, params, initial, target)
        approx = finite_difference_gradient(sched, params, initial, target, h=1e-6)
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
        sched = PiecewiseConstantSchedule(0.0, dt, [g_star], [0.0], (0.0, 1.0))
        opts = PropagationOptions(rwa=True)
        f, grad = objective_and_gradient(sched, params, initial, photon_target, opts)
        np.testing.assert_allclose(f, 1.0, atol=1e-12)
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-10)

    def test_objective_and_gradient_consistent(self):
        sched = random_schedule(9)
        f, grad = objective_and_gradient(sched, PARAMS, INITIAL, TARGET)
        np.testing.assert_allclose(f, objective(sched, PARAMS, INITIAL, TARGET), rtol=1e-14)
        np.testing.assert_allclose(grad, gradient(sched, PARAMS, INITIAL, TARGET), rtol=1e-14)


class TestOptimize:
    def toy_problem(self):
        params = ModelParams(kappa=0.0, n_max=1)
        initial = superposition_initial(0.0, 1.0, params)
        photon_target = basis_state(1, 0, 0, params)
        return params, initial, photon_target

    def test_stationary_start_converges_immediately(self):
        params, initial, photon_target = self.toy_problem()
        dt = 4.0
        g_star = np.pi / (2 * dt)
        start = PiecewiseConstantSchedule(0.0, dt, [g_star], [0.0], (0.0, 1.0))
        config = OptimizationConfig(duration=dt, bounds=(0.0, 1.0), bins=1, restarts=1)
        result = optimize(
            config, params, initial, photon_target,
            PropagationOptions(rwa=True), initial_schedule=start,
        )
        assert len(result.iteration_history) <= 2
        np.testing.assert_allclose(result.best_fidelity, 1.0, atol=1e-12)
        np.testing.assert_allclose(result.best_schedule.values1[0], g_star, atol=1e-9)

    def test_toy_problem_reaches_optimum_from_random(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(
            duration=6.0, bounds=(0.0, 0.5), bins=2, seed=1, init="random", restarts=3
        )
        result = optimize(config, params, initial, photon_target, PropagationOptions(rwa=True))
        assert result.best_fidelity > 1 - 1e-8

    def test_iterates_respect_bounds(self):
        params, initial, photon_target = self.toy_problem()
        seen = []
        original = objective_and_gradient

        def spy(sched, *args, **kwargs):
            seen.append(sched.stacked())
            return original(sched, *args, **kwargs)

        import usctransfer.qoc as qoc_mod

        bounds = (0.0, 0.2)
        config = OptimizationConfig(duration=8.0, bounds=bounds, bins=3, seed=2, restarts=2)
        old = qoc_mod.objective_and_gradient
        qoc_mod.objective_and_gradient = spy
        try:
            optimize(config, params, initial, photon_target, PropagationOptions(rwa=True))
        finally:
            qoc_mod.objective_and_gradient = old
        stacked = np.array(seen)
        assert stacked.min() >= bounds[0] - 1e-15 and stacked.max() <= bounds[1] + 1e-15

    def test_best_fidelity_is_fresh_evaluation(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, bounds=(0.0, 0.4), bins=2, seed=3, restarts=1)
        opts = PropagationOptions(rwa=True)
        result = optimize(config, params, initial, photon_target, opts)
        fresh = objective(result.best_schedule, params, initial, photon_target, opts)
        assert abs(result.best_fidelity - fresh) < 1e-10

    def test_bit_for_bit_reproducible(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(
            duration=5.0, bounds=(0.0, 0.4), bins=3, seed=12, init="random", restarts=2
        )
        opts = PropagationOptions(rwa=True)
        first = optimize(config, params, initial, photon_target, opts)
        second = optimize(config, params, initial, photon_target, opts)
        assert first.best_fidelity == second.best_fidelity
        np.testing.assert_array_equal(
            first.best_schedule.stacked(), second.best_schedule.stacked()
        )

    def test_history_records_iterations(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, bounds=(0.0, 0.4), bins=2, seed=4, restarts=1)
        result = optimize(config, params, initial, photon_target, PropagationOptions(rwa=True))
        iters = [entry[0] for entry in result.iteration_history]
        assert iters == sorted(iters)
        assert all(np.isfinite(entry[1]) and np.isfinite(entry[2]) for entry in result.iteration_history)

    def test_lossless_not_worse_than_lossy(self):
        # losses can only reduce the achievable overlap here; verified, not assumed
        lossy = ModelParams(kappa=0.005, n_max=2)
        lossless = ModelParams(kappa=0.0, n_max=2)
        config = OptimizationConfig(duration=10.0, bounds=(0.0, 0.3), bins=8, seed=5, restarts=2, max_iters=150)
        results = {}
        for params in (lossy, lossless):
            initial = superposition_initial(0.0, 1.0, params)
            target = superposition_target(0.0, 1.0, params)
            results[params.kappa] = optimize(config, params, initial, target).best_fidelity
        assert results[0.0] >= results[0.005]

    def test_mismatched_initial_schedule_rejected(self):
        params, initial, photon_target = self.toy_problem()
        config = OptimizationConfig(duration=5.0, bounds=(0.0, 0.4), bins=2)
        wrong = PiecewiseConstantSchedule(0.0, 1.0, [0.1, 0.1, 0.1], [0.0, 0.0, 0.0], (0.0, 0.4))
        with pytest.raises(ValueError):
            optimize(config, params, initial, photon_target, initial_schedule=wrong)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizationConfig(duration=-1.0, bounds=(0.0, 0.3))
        with pytest.raises(ValueError):
            OptimizationConfig(duration=1.0, bounds=(0.3, 0.0))
        with pytest.raises(ValueError):
            OptimizationConfig(duration=1.0, bounds=(0.0, 0.3), init="annealing")


class TestRefinement:
    def test_finer_bins_no_worse(self, reference_qoc):
        # a 20-bin schedule embeds exactly into 40 bins; ascent from there
        # cannot end below the coarse optimum
        coarse = reference_qoc["result"]
        params = reference_qoc["params"]
        config = reference_qoc["config"]
        fine_values1 = np.repeat(coarse.best_schedule.values1, 2)
        fine_values2 = np.repeat(coarse.best_schedule.values2, 2)
        fine_start = PiecewiseConstantSchedule(
            0.0, config.duration / 40, fine_values1, fine_values2, config.bounds
        )
        fine_config = OptimizationConfig(
            duration=config.duration, bounds=config.bounds, bins=40,
            seed=config.seed, restarts=1, max_iters=60,
        )
        fine = optimize(
            fine_config, params, reference_qoc["initial"], reference_qoc["target"],
            initial_schedule=fine_start,
        )
        assert fine.best_fidelity >= coarse.best_fidelity - 1e-3
