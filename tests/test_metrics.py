"""Transfer efficiency and trajectory diagnostics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import usctransfer
from usctransfer import (
    GaussianPair,
    ModelParams,
    PropagationOptions,
    Trajectory,
    basis_state,
    cavity_indices,
    integration_window,
    leakage,
    mean_photon,
    populations,
    propagate,
    superposition_initial,
    transfer_efficiency,
)
from usctransfer.model import basis_index, flat_index

PARAMS = ModelParams(kappa=0.0, n_max=3)


def random_state(rng, dim, normalize=True):
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return state / np.linalg.norm(state) if normalize else state


class TestTransferEfficiency:
    def test_self_overlap(self):
        state = basis_state(0, 1, 0, PARAMS)
        assert transfer_efficiency(state, state) == 1.0

    def test_orthogonal_states(self):
        assert transfer_efficiency(basis_state(0, 0, 1, PARAMS), basis_state(0, 1, 0, PARAMS)) == 0.0

    def test_global_phase_irrelevant(self):
        rng = np.random.default_rng(0)
        final = random_state(rng, PARAMS.dim)
        target = random_state(rng, PARAMS.dim)
        base = transfer_efficiency(final, target)
        np.testing.assert_allclose(
            transfer_efficiency(np.exp(1.3j) * final, target), base, rtol=1e-12
        )
        np.testing.assert_allclose(
            transfer_efficiency(final, np.exp(-0.4j) * target), base, rtol=1e-12
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dim = 8
        final = random_state(rng, dim) * 0.9  # sub-normalized, as after losses
        target = random_state(rng, dim)
        gaussian = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gaussian)
        np.testing.assert_allclose(
            transfer_efficiency(unitary @ final, unitary @ target),
            transfer_efficiency(final, target),
            rtol=1e-10,
        )

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            final = random_state(rng, 6) * rng.uniform(0.2, 1.0)
            target = random_state(rng, 6)
            f = transfer_efficiency(final, target)
            assert 0.0 <= f <= np.vdot(final, final).real * (1 + 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transfer_efficiency(np.zeros(4, complex), np.zeros(6, complex))

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError):
            transfer_efficiency(basis_state(0, 0, 0, PARAMS), 0.5 * basis_state(0, 0, 0, PARAMS))

    def test_nan_final_raises(self):
        final = basis_state(0, 0, 0, PARAMS)
        final[3] = np.nan
        with pytest.raises(FloatingPointError):
            transfer_efficiency(final, basis_state(0, 0, 0, PARAMS))

    def test_nan_final_raises_under_optimize_flag(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "import numpy as np\n"
            "from usctransfer import transfer_efficiency\n"
            "target = np.eye(4, dtype=complex)[0]\n"
            "try:\n"
            "    transfer_efficiency(np.full(4, np.nan, dtype=complex), target)\n"
            "except FloatingPointError:\n"
            "    raise SystemExit(3)\n"
        )
        src = str(Path(usctransfer.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr


def short_gaussian_run(kappa=0.0):
    params = ModelParams(kappa=kappa, n_max=4)
    pair = GaussianPair(g0=0.25, T=8.0, tau=5.0)
    psi0 = superposition_initial(0.0, 1.0, params)
    traj = propagate(psi0, pair, params, integration_window(pair), PropagationOptions(dt=0.01))
    return params, traj


class TestPopulations:
    def test_full_basis_sums_to_norm(self):
        params, traj = short_gaussian_run(kappa=0.006)
        total = populations(traj, range(params.dim))
        np.testing.assert_allclose(total, traj.norms2(), atol=1e-12)

    def test_initial_condition(self):
        params, traj = short_gaussian_run()
        p_source = populations(traj, [flat_index(0, 0, 1, params)])
        np.testing.assert_allclose(p_source[0], 1.0, atol=1e-12)

    def test_subspace_selector(self):
        for params in (PARAMS, ModelParams(n_max=1)):
            indices = cavity_indices(params)
            expected = [k for k in range(params.dim) if basis_index(k, params).n >= 1]
            np.testing.assert_array_equal(indices, expected)
            assert indices.size == params.dim - 4


class TestPhotonDiagnostics:
    def test_vacuum_sector(self):
        assert mean_photon(superposition_initial(0.6, 0.8, PARAMS), PARAMS) == 0.0

    def test_two_photon_state(self):
        assert mean_photon(basis_state(2, 0, 0, PARAMS), PARAMS) == 2.0

    def test_peak_over_trajectory(self):
        # the interpolated peak can only exceed the sampled maximum, and at
        # dt = 0.01 only by far less than the sampled maximum's own error
        params, traj = short_gaussian_run()
        peak = traj.peak_mean_photon
        assert peak > 0
        sampled = max(mean_photon(state, params) for state in traj.states)
        assert sampled <= peak <= sampled * (1 + 1e-6)

    def test_lossless_run_has_no_leakage(self):
        _, traj = short_gaussian_run(kappa=0.0)
        assert abs(leakage(traj)) < 1e-9

    def test_lossy_run_leaks(self):
        _, traj = short_gaussian_run(kappa=0.006)
        assert leakage(traj) > 0


class TestTrajectoryContainer:
    def test_norms2_matches_states(self):
        times = np.array([0.0, 1.0])
        states = np.array([[1.0 + 0j, 0j], [0.6 + 0j, 0.3j]])
        traj = Trajectory(times, states, states[-1])
        np.testing.assert_allclose(traj.norms2(), [1.0, 0.45])
