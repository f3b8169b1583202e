"""Transfer efficiency and trajectory diagnostics."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import usctransfer
from usctransfer import (
    GaussianPair,
    IntegrationError,
    ModelParams,
    PropagationOptions,
    SweepFixed,
    Trajectory,
    basis_state,
    cavity_indices,
    gaussian_row,
    integration_window,
    leakage,
    populations,
    propagate,
    superposition_initial,
    transfer_efficiency,
)
from usctransfer.formats import trajectory_csv
from usctransfer.model import basis_labels, flat_index

from conftest import REF_G0, reference_fixed

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
        with pytest.raises(IntegrationError):
            transfer_efficiency(final, basis_state(0, 0, 0, PARAMS))

    def test_nan_final_raises_under_optimize_flag(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "import numpy as np\n"
            "from usctransfer import IntegrationError, transfer_efficiency\n"
            "target = np.eye(4, dtype=complex)[0]\n"
            "try:\n"
            "    transfer_efficiency(np.full(4, np.nan, dtype=complex), target)\n"
            "except IntegrationError:\n"
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

    def test_rejects_out_of_range_indices(self):
        # a negative index would wrap to the last basis state, and bincount
        # would drop one past the end without a word
        params, traj = short_gaussian_run()
        for index in (-1, params.dim):
            with pytest.raises(ValueError, match=f"basis index {index} is outside 0..{params.dim - 1}"):
                populations(traj, [0, index])

    def test_repeated_index_counts_again(self):
        params, traj = short_gaussian_run()
        source = flat_index(0, 0, 1, params)
        np.testing.assert_array_equal(populations(traj, [source, source]), 2 * populations(traj, [source]))

    def test_subspace_selector(self):
        for params in (PARAMS, ModelParams(n_max=1)):
            indices = cavity_indices(params)
            expected = [k for k in range(params.dim) if k // 4 >= 1]
            np.testing.assert_array_equal(indices, expected)
            assert indices.size == params.dim - 4


class TestPhotonDiagnostics:
    def test_peak_over_trajectory(self):
        # the interpolated peak can only exceed the sampled maximum, and at
        # dt = 0.01 only by far less than the sampled maximum's own error
        params, traj = short_gaussian_run()
        peak = traj.peak_mean_photon
        assert peak > 0
        sampled = traj.expect(basis_labels(params)[0]).max()
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
        traj = Trajectory(times, (np.arange(2),), states[:, None], states[-1])
        np.testing.assert_allclose(traj.norms2(), [1.0, 0.45])


class TestBlockReads:
    def test_observables_never_build_the_full_space_states(self, monkeypatch):
        def unavailable(traj):
            raise AssertionError("Trajectory.states was read")

        monkeypatch.setattr(Trajectory, "states", property(unavailable))
        params, traj = short_gaussian_run(kappa=0.006)
        assert trajectory_csv(traj).count("\n") == traj.times.size + 1
        populations(traj, cavity_indices(params))
        traj.norms2()
        leakage(traj)
        fixed = SweepFixed(params=params, options=PropagationOptions(dt=0.2))
        assert len(gaussian_row(0.2, [0.2, 0.3], fixed)) == 2

    def test_populations_holds_no_full_space_array(self):
        # the traced peak of one population read on the reference-g0
        # t_inv = 0.01 trajectory stays below one (samples, dim) complex array
        fixed = reference_fixed()
        _, traj = gaussian_row(0.01, [REF_G0], fixed)[0]
        indices = [flat_index(0, 0, 1, fixed.params)]
        populations(traj, indices)
        tracemalloc.start()
        try:
            populations(traj, indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.times.size * fixed.params.dim * 16
