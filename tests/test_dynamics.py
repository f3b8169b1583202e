"""Propagator correctness against closed forms and the dense-exponential oracle."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from usctransfer import (
    GaussianPair,
    IntegrationError,
    ModelParams,
    PiecewiseConstantSchedule,
    PropagationOptions,
    basis_state,
    excitation_operator,
    integration_window,
    matrix_exponential,
    parity_operator,
    propagate,
    propagate_piecewise,
    superposition_initial,
    transfer_efficiency,
    superposition_target,
)
from usctransfer.model import coupling_operator

from conftest import dense_generator


def constant_schedule(g1, g2, duration, bounds=(0.0, 1.0)):
    return PiecewiseConstantSchedule(0.0, duration, [g1], [g2], bounds)


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_case(self):
        d = np.array([0.3, -1.2, 2.5])
        t = 0.77
        result = matrix_exponential(np.diag(d), -1j * t)
        np.testing.assert_allclose(result, np.diag(np.exp(-1j * d * t)), atol=1e-14)

    def test_coupling_block_rotation(self):
        g, t = 0.3, 2.0
        block = np.array([[0.0, g], [g, 0.0]])
        expected = np.array(
            [
                [math.cos(g * t), -1j * math.sin(g * t)],
                [-1j * math.sin(g * t), math.cos(g * t)],
            ]
        )
        np.testing.assert_allclose(matrix_exponential(block, -1j * t), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_scipy_oracle(self, seed):
        # generator-shaped matrices scaled to the top of the contract range
        params = ModelParams(kappa=0.01, n_max=3)
        h = dense_generator(params, 0.3, 0.25)
        rng = np.random.default_rng(seed)
        h = h + 0.05 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        scale = 10.0 / np.abs(h).sum(axis=0).max()
        mine = matrix_exponential(h, scale)
        reference = scipy.linalg.expm(scale * h)
        rel = np.linalg.norm(mine - reference) / np.linalg.norm(reference)
        assert rel < 1e-12

    def test_large_norm_still_accurate(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a *= 40.0 / np.abs(a).sum(axis=0).max()
        rel = np.linalg.norm(matrix_exponential(a) - scipy.linalg.expm(a)) / np.linalg.norm(
            scipy.linalg.expm(a)
        )
        assert rel < 1e-10

    def test_nonfinite_rejected(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            matrix_exponential(bad)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))


class TestPropagateClosedForms:
    def test_stationary_state_of_diagonal_hamiltonian(self):
        params = ModelParams(kappa=0.0, n_max=2)
        psi0 = basis_state(0, 0, 1, params)
        duration = 7.3
        traj = propagate(psi0, constant_schedule(0.0, 0.0, duration), params, (0.0, duration))
        expected = np.exp(-1j * params.eps1 * duration) * psi0
        np.testing.assert_allclose(traj.final, expected, atol=1e-10)
        np.testing.assert_allclose(np.vdot(traj.final, traj.final).real, 1.0, atol=1e-10)

    def test_vacuum_rabi_oscillation(self):
        # two-state reduction in the single-excitation sector: P(t) = sin^2(g t)
        params = ModelParams(kappa=0.0, n_max=3)
        g = 0.05
        duration = 60.0
        psi0 = basis_state(0, 0, 1, params)
        traj = propagate(
            psi0,
            constant_schedule(g, 0.0, duration),
            params,
            (0.0, duration),
            PropagationOptions(rwa=True, dt=0.005),
        )
        p_transfer = np.abs(traj.states[:, 4]) ** 2  # |1,g,g>
        np.testing.assert_allclose(p_transfer, np.sin(g * traj.times) ** 2, atol=1e-6)

    def test_single_photon_decay(self):
        params = ModelParams(kappa=0.01, n_max=2)
        psi0 = basis_state(1, 0, 0, params)
        duration = 50.0
        traj = propagate(psi0, constant_schedule(0.0, 0.0, duration), params, (0.0, duration))
        np.testing.assert_allclose(traj.norms2(), np.exp(-params.kappa * traj.times), atol=1e-8)


class TestConservationLaws:
    def gaussian_run(self, kappa, rwa, n_max=6):
        params = ModelParams(kappa=kappa, n_max=n_max)
        pair = GaussianPair(g0=0.3, T=10.0, tau=6.0)
        psi0 = superposition_initial(0.0, 1.0, params)
        window = integration_window(pair)
        opts = PropagationOptions(rwa=rwa)
        return params, propagate(psi0, pair, params, window, opts)

    def test_norm_conserved_without_loss(self):
        _, traj = self.gaussian_run(kappa=0.0, rwa=False)
        np.testing.assert_allclose(traj.norms2(), 1.0, atol=1e-9)

    def test_norm_monotone_with_loss(self):
        _, traj = self.gaussian_run(kappa=0.005, rwa=False)
        norms = traj.norms2()
        assert np.all(np.diff(norms) <= 1e-10)
        assert norms[-1] < 1.0

    def test_parity_conserved_full_model(self):
        params, traj = self.gaussian_run(kappa=0.0, rwa=False)
        pi = parity_operator(params)
        expectation = np.einsum("ti,ij,tj->t", traj.states.conj(), pi, traj.states).real
        np.testing.assert_allclose(expectation, expectation[0], atol=1e-8)

    def test_excitation_conserved_rwa(self):
        params, traj = self.gaussian_run(kappa=0.0, rwa=True)
        n_exc = excitation_operator(params)
        expectation = np.einsum("ti,ij,tj->t", traj.states.conj(), n_exc, traj.states).real
        np.testing.assert_allclose(expectation, expectation[0], atol=1e-8)

    def test_times_strictly_increasing(self):
        _, traj = self.gaussian_run(kappa=0.005, rwa=False)
        assert np.all(np.diff(traj.times) > 0)


class TestPiecewisePropagation:
    PARAMS = ModelParams(kappa=0.004, n_max=3)

    def test_single_bin_matches_midpoint_stepper(self):
        sched = constant_schedule(0.21, 0.13, 4.0)
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        traj_pw, _ = propagate_piecewise(psi0, sched, self.PARAMS)
        traj = propagate(psi0, sched, self.PARAMS, (0.0, 4.0), PropagationOptions(dt=4.0))
        np.testing.assert_allclose(traj_pw.final, traj.final, atol=1e-12)

    def test_semigroup_property(self):
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        dur, m = 6.0, 8
        one_bin = constant_schedule(0.18, 0.27, dur)
        many = PiecewiseConstantSchedule(
            0.0, dur / m, np.full(m, 0.18), np.full(m, 0.27), (0.0, 1.0)
        )
        final_one, _ = propagate_piecewise(psi0, one_bin, self.PARAMS)
        final_many, _ = propagate_piecewise(psi0, many, self.PARAMS)
        np.testing.assert_allclose(final_one.final, final_many.final, atol=1e-10)

    def test_dense_exponential_chain_oracle(self):
        # independent route: scipy expm per bin, chained on the n_max=3 space
        rng = np.random.default_rng(11)
        m = 6
        sched = PiecewiseConstantSchedule(
            0.0, 0.9, rng.uniform(0, 0.3, m), rng.uniform(0, 0.3, m), (0.0, 0.3)
        )
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        traj, us = propagate_piecewise(psi0, sched, self.PARAMS)
        psi = psi0.copy()
        for k in range(m):
            k_eff = dense_generator(self.PARAMS, sched.values1[k], sched.values2[k])
            psi = scipy.linalg.expm(-1j * sched.dt * k_eff) @ psi
        np.testing.assert_allclose(traj.final, psi, atol=1e-10)
        assert len(us) == m

    def test_propagators_returned_in_application_order(self):
        sched = PiecewiseConstantSchedule(0.0, 1.5, [0.1, 0.3], [0.2, 0.0], (0.0, 0.3))
        psi0 = superposition_initial(1.0, 0.0, self.PARAMS)
        traj, us = propagate_piecewise(psi0, sched, self.PARAMS)
        np.testing.assert_allclose(us[1] @ (us[0] @ psi0), traj.final, atol=1e-13)


class TestBatchedPropagation:
    PARAMS = ModelParams(kappa=0.01, n_max=2)

    def test_dense_midpoint_chain_oracle_per_amplitude(self):
        # independent route per amplitude: scipy expm of the dense generator
        # at every step midpoint, chained on the n_max=2 space
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        window = (-4.0, 4.0)
        opts = PropagationOptions(dt=0.05, record_stride=7)
        amplitudes = [0.35, 0.0, 0.6]
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        trajs = propagate(psi0, pair, self.PARAMS, window, opts, amplitudes=amplitudes)
        assert len(trajs) == len(amplitudes)
        n_steps = 160
        h = (window[1] - window[0]) / n_steps
        for amp, traj in zip(amplitudes, trajs):
            psi = psi0.copy()
            states = [psi]
            for i in range(n_steps):
                g1, g2 = pair.values(window[0] + (i + 0.5) * h)
                k_eff = dense_generator(self.PARAMS, amp * g1, amp * g2)
                psi = scipy.linalg.expm(-1j * h * k_eff) @ psi
                if (i + 1) % opts.record_stride == 0 or i == n_steps - 1:
                    states.append(psi)
            np.testing.assert_allclose(traj.final, psi, atol=1e-10)
            np.testing.assert_allclose(traj.states, np.array(states), atol=1e-10)
            np.testing.assert_array_equal(traj.times, trajs[0].times)

    def test_bad_amplitudes_rejected(self):
        psi0 = basis_state(0, 0, 0, self.PARAMS)
        sched = constant_schedule(0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            propagate(psi0, sched, self.PARAMS, (0.0, 1.0), amplitudes=[])
        with pytest.raises(IntegrationError):
            propagate(psi0, sched, self.PARAMS, (0.0, 1.0), amplitudes=[0.1, np.nan])


class TestIntegratorAgreement:
    def test_adaptive_matches_piecewise_on_gaussian_schedule(self):
        params = ModelParams(kappa=0.005, n_max=6)
        pair = GaussianPair(g0=0.3, T=10.0, tau=6.0)
        window = integration_window(pair)
        psi0 = superposition_initial(0.0, 1.0, params)
        target = superposition_target(0.0, 1.0, params)
        fidelities = {}
        traj = propagate(psi0, pair, params, window, PropagationOptions(dt=0.01))
        fidelities["piecewise-exponential"] = transfer_efficiency(traj.final, target)

        # oracle: adaptive DOP853 on i dpsi/dt = K(t) psi
        k0 = dense_generator(params, 0.0, 0.0)
        v1, v2 = coupling_operator(1, params), coupling_operator(2, params)

        def rhs(t, y):
            g1, g2 = pair.values(t)
            return -1j * ((k0 + g1 * v1 + g2 * v2) @ y)

        sol = scipy.integrate.solve_ivp(rhs, window, psi0, method="DOP853", rtol=1e-9, atol=1e-9)
        assert sol.success, sol.message
        fidelities["adaptive-rk"] = transfer_efficiency(sol.y[:, -1], target)
        assert abs(fidelities["piecewise-exponential"] - fidelities["adaptive-rk"]) < 1e-6


class TestValidation:
    PARAMS = ModelParams(n_max=2)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ValueError):
            propagate(
                np.full(self.PARAMS.dim, 0.5 + 0j),
                constant_schedule(0.1, 0.1, 1.0),
                self.PARAMS,
                (0.0, 1.0),
            )

    def test_infinite_window_rejected(self):
        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(ValueError):
            propagate(psi0, constant_schedule(0.1, 0.1, 1.0), self.PARAMS, (-np.inf, 1.0))

    def test_empty_window_rejected(self):
        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(ValueError):
            propagate(psi0, constant_schedule(0.1, 0.1, 1.0), self.PARAMS, (1.0, 1.0))

    def test_nonfinite_schedule_raises_integration_error(self):
        class BadSchedule:
            def values(self, t):
                return (np.nan, 0.0)

        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(IntegrationError):
            propagate(psi0, BadSchedule(), self.PARAMS, (0.0, 1.0))
