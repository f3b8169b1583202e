"""Propagator correctness against closed forms and the dense-exponential oracle."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from usctransfer import (
    GaussianPair,
    IntegrationError,
    ModelParams,
    PiecewiseConstantSchedule,
    PropagationOptions,
    basis_state,
    conserved_blocks,
    excitation_operator,
    generators,
    integration_window,
    parity_operator,
    propagate,
    superposition_initial,
    transfer_efficiency,
    superposition_target,
)
from usctransfer import dynamics
from usctransfer.model import coupling_operator

from conftest import dense_generator, replay


def constant_schedule(g1, g2, duration):
    return PiecewiseConstantSchedule(0.0, duration, [g1], [g2])


def dense_cf4_chain(psi0, schedule, params, window, n_steps, amp=1.0, rwa=False):
    """States after each of ``n_steps`` fourth-order commutator-free Magnus steps.

    Two scipy expm of the dense full-space generator per step, the
    couplings taken at the Gauss nodes, the right-hand factor applied first;
    independent of the library's blocks, trace shift and Taylor kernel.
    """
    a1, a2 = 0.25 - math.sqrt(3) / 6, 0.25 + math.sqrt(3) / 6
    c1, c2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
    h = (window[1] - window[0]) / n_steps
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]
    for i in range(n_steps):
        t = window[0] + i * h
        k_1 = dense_generator(params, *(amp * g for g in schedule.values(t + c1 * h)), rwa=rwa)
        k_2 = dense_generator(params, *(amp * g for g in schedule.values(t + c2 * h)), rwa=rwa)
        psi = scipy.linalg.expm(-1j * h * (a2 * k_1 + a1 * k_2)) @ psi
        psi = scipy.linalg.expm(-1j * h * (a1 * k_1 + a2 * k_2)) @ psi
        states.append(psi)
    return states


def taylor_degree(x):
    """Smallest degree m with remainder bound e^x x^(m+1)/(m+1)! <= 2^-53; the scalar loop reference."""
    degree, bound = 0, math.exp(x) * x
    while bound > 2.0**-53:
        degree += 1
        bound *= x / (degree + 1)
    return degree


def scalar_plan(psi0, schedule, params, window, opts, amps=(1.0,), rwa=False):
    """(substeps, degree) of every CF4 exponential, chosen one exponential at a time.

    Each exponential's 1-norm bound is that of its generator on the occupied
    conserved blocks with the trace shifted out, at the largest amplitude.
    The blocks come from the excitation operator: its parity sectors under
    the Rabi model and its eigenspaces under RWA, each at its own size.
    """
    a1, a2 = 0.25 - math.sqrt(3) / 6, 0.25 + math.sqrt(3) / 6
    c1, c2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
    n_exc = np.rint(excitation_operator(params).diagonal().real).astype(int)
    sector = n_exc if rwa else n_exc % 2
    blocks = [np.flatnonzero(sector == q) for q in np.unique(sector)]
    blocks = [idx for idx in blocks if np.any(psi0[idx])]
    k0, v1, v2 = generators(params, rwa)

    def norm(op, shift=False):
        norms = []
        for idx in blocks:
            block = op[np.ix_(idx, idx)]
            if shift:
                block = 0.5 * (block - np.trace(block) / idx.size * np.eye(idx.size))
            norms.append(float(np.abs(block).sum(axis=0).max()))
        return max(norms)

    n0, nv1, nv2 = norm(k0, shift=True), norm(v1), norm(v2)
    a_max = max(abs(a) for a in amps)
    n_steps = max(1, math.ceil((window[1] - window[0]) / opts.dt))
    h = (window[1] - window[0]) / n_steps
    plan = []
    for i in range(n_steps):
        t = window[0] + i * h
        (g1a, g2a), (g1b, g2b) = schedule.values(t + c1 * h), schedule.values(t + c2 * h)
        for w1, w2 in ((a2, a1), (a1, a2)):
            u1, u2 = w1 * g1a + w2 * g1b, w1 * g2a + w2 * g2b
            x = h * (n0 + a_max * (abs(u1) * nv1 + abs(u2) * nv2))
            substeps = max(1, math.ceil(x / dynamics._TAYLOR_THETA))
            plan.append((substeps, taylor_degree(x / substeps)))
    return plan


class TestGenerators:
    def test_cached_and_read_only(self):
        params = ModelParams(n_max=2)
        ops = generators(params)
        assert all(a is b for a, b in zip(ops, generators(params)))
        for op in ops:
            with pytest.raises(ValueError):
                op[0, 0] = 1.0


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
            PropagationOptions(dt=0.005),
            rwa=True,
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
        return params, propagate(psi0, pair, params, window, rwa=rwa)

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

    def test_single_bin_matches_stepper(self):
        # one exact step over the bin against 80 steps of 0.05
        sched = constant_schedule(0.21, 0.13, 4.0)
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        traj_pw = replay(psi0, sched, self.PARAMS)
        traj = propagate(psi0, sched, self.PARAMS, (0.0, 4.0), PropagationOptions(dt=0.05))
        assert traj_pw.times.size == 2 and traj.times.size == 81
        np.testing.assert_allclose(traj_pw.final, traj.final, atol=1e-12)

    def test_semigroup_property(self):
        psi0 = superposition_initial(0.0, 1.0, self.PARAMS)
        dur, m = 6.0, 8
        one_bin = constant_schedule(0.18, 0.27, dur)
        many = PiecewiseConstantSchedule(
            0.0, dur / m, np.full(m, 0.18), np.full(m, 0.27)
        )
        final_one = replay(psi0, one_bin, self.PARAMS)
        final_many = replay(psi0, many, self.PARAMS)
        np.testing.assert_allclose(final_one.final, final_many.final, atol=1e-10)

    @staticmethod
    def expm_chain(psi0, sched, params, rwa):
        """The state at every bin edge: scipy expm of the dense generator per bin."""
        states = [np.asarray(psi0, dtype=complex)]
        for g1, g2 in zip(sched.values1, sched.values2):
            k_eff = dense_generator(params, g1, g2, rwa=rwa)
            states.append(scipy.linalg.expm(-1j * sched.dt * k_eff) @ states[-1])
        return np.array(states)

    @pytest.mark.parametrize(
        "alpha, beta", [pytest.param(0.0, 1.0, id="odd-block"), pytest.param(0.6, 0.8, id="both-blocks")]
    )
    def test_dense_exponential_chain_oracle(self, alpha, beta):
        # independent route: scipy expm per bin, chained on the n_max=3 space,
        # for both models
        rng = np.random.default_rng(11)
        m = 6
        sched = PiecewiseConstantSchedule(
            0.0, 0.9, rng.uniform(0, 0.3, m), rng.uniform(0, 0.3, m)
        )
        psi0 = superposition_initial(alpha, beta, self.PARAMS)
        for rwa in (False, True):
            traj = replay(psi0, sched, self.PARAMS, rwa=rwa)
            chain = self.expm_chain(psi0, sched, self.PARAMS, rwa)
            np.testing.assert_allclose(traj.final, chain[-1], atol=1e-10, err_msg=f"rwa={rwa}")
            np.testing.assert_allclose(traj.states, chain, atol=1e-10, err_msg=f"rwa={rwa}")

    def test_one_step_per_bin_when_the_bin_ratio_rounds_up(self):
        # 3 bins of 0.1 end at 0.30000000000000004, and the window over the
        # bin width is 3.0000000000000004: still 3 steps, on the bin edges
        sched = PiecewiseConstantSchedule(0.0, 0.1, [0.3, 0.1, 0.2], [0.05, 0.25, 0.15])
        assert (sched.t_end - sched.t_start) / sched.dt > 3
        psi0 = superposition_initial(0.6, 0.8, self.PARAMS)
        traj = replay(psi0, sched, self.PARAMS)
        assert traj.times.size == 4
        np.testing.assert_allclose(traj.times, sched.t_start + sched.dt * np.arange(4), rtol=0, atol=1e-15)
        chain = self.expm_chain(psi0, sched, self.PARAMS, False)
        np.testing.assert_allclose(traj.states, chain, atol=1e-10)


    def test_peak_reads_each_step_inside_both_its_ends(self, monkeypatch):
        # bins [1, 1.5), [1.5, 2), [2, 2.5]; steps of 0.5 from 0.25 lie
        # outside the window, straddle its start and its end, and span each jump
        sched = PiecewiseConstantSchedule(1.0, 0.5, [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
        photon_peaks, seen = dynamics._photon_peaks, {}

        def spy(times, states, params, rwa, blocks, amps, left, right):
            seen.update(left=left, right=right)
            return photon_peaks(times, states, params, rwa, blocks, amps, left, right)

        monkeypatch.setattr(dynamics, "_photon_peaks", spy)
        psi0 = superposition_initial(0.6, 0.8, self.PARAMS)
        traj = propagate(psi0, sched, self.PARAMS, (0.25, 3.25), PropagationOptions(dt=0.5))
        assert traj.times.size == 7
        zero, (b0, b1, b2) = [0.0, 0.0], np.column_stack([sched.values1, sched.values2])
        np.testing.assert_array_equal(seen["left"], [zero, zero, b0, b1, b2, zero])
        np.testing.assert_array_equal(seen["right"], [zero, b0, b1, b2, zero, zero])

    def test_replay_peak_takes_each_bins_couplings_on_rounded_edges(self):
        # step edges of 10 bins of 0.1 from 0.3 round below the bin edge,
        # where a read at the sample time picks the previous bin; the
        # replay's peak slopes must come from each bin's own couplings at
        # both its ends (reading each step start on its edge moves this peak 0.17%)
        rng = np.random.default_rng(1)
        sched = PiecewiseConstantSchedule(0.3, 0.1, rng.uniform(0, 0.3, 10), rng.uniform(0, 0.3, 10))
        psi0 = superposition_initial(0.6, 0.8, self.PARAMS)
        traj = replay(psi0, sched, self.PARAMS)
        bins = np.column_stack([sched.values1, sched.values2])
        assert not np.array_equal(np.column_stack(sched.values(traj.times[:-1])), bins)
        blocks = conserved_blocks(self.PARAMS, False)  # the input fills both parity blocks
        peak = dynamics._photon_peaks(traj.times, traj.states[None], self.PARAMS, False, blocks, np.ones(1), bins, bins)
        assert traj.peak_mean_photon == float(peak[0])


class TestBatchedPropagation:
    PARAMS = ModelParams(kappa=0.01, n_max=2)

    @pytest.mark.parametrize(
        "alpha, beta", [pytest.param(0.0, 1.0, id="odd-block"), pytest.param(0.6, 0.8, id="both-blocks")]
    )
    def test_dense_cf4_chain_oracle_per_amplitude(self, alpha, beta):
        # independent route per amplitude: two scipy expm of the dense
        # generator per step, chained on the n_max=2 space
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        window = (-4.0, 4.0)
        opts = PropagationOptions(dt=0.05)
        amplitudes = [0.35, 0.0, 0.6]
        psi0 = superposition_initial(alpha, beta, self.PARAMS)
        trajs = propagate(psi0, pair, self.PARAMS, window, opts, amplitudes=amplitudes)
        assert len(trajs) == len(amplitudes)
        n_steps = 160
        for amp, traj in zip(amplitudes, trajs):
            chain = dense_cf4_chain(psi0, pair, self.PARAMS, window, n_steps, amp)
            np.testing.assert_allclose(traj.final, chain[-1], atol=1e-10)
            np.testing.assert_allclose(traj.states, np.array(chain), atol=1e-10)
            np.testing.assert_array_equal(traj.times, trajs[0].times)

    def test_chunk_size_changes_no_result(self, monkeypatch):
        # a generator buffer of one row splits every step into one product
        # per (amplitude, block) row; the states come out the same
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        psi0 = superposition_initial(0.6, 0.8, self.PARAMS)
        opts = PropagationOptions(dt=0.2)
        runs = []
        for chunk_bytes in (dynamics._CHUNK_BYTES, 2048):
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", chunk_bytes)
            runs.append(propagate(psi0, pair, self.PARAMS, (-4.0, 4.0), opts, amplitudes=[0.35, 0.0, 0.6]))
        for default, split in zip(*runs):
            np.testing.assert_array_equal(split.states, default.states)
            assert split.peak_mean_photon == default.peak_mean_photon

    def test_bad_amplitudes_rejected(self):
        psi0 = basis_state(0, 0, 0, self.PARAMS)
        sched = constant_schedule(0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            propagate(psi0, sched, self.PARAMS, (0.0, 1.0), amplitudes=[])
        with pytest.raises(IntegrationError):
            propagate(psi0, sched, self.PARAMS, (0.0, 1.0), amplitudes=[0.1, np.nan])


class TestTaylorPlan:
    def test_plan_matches_scalar_loop_on_dense_grid(self):
        # the last x of each degree and the first of the next, found by
        # bisection to adjacent floats, then the same points at 2 to 5
        # substeps and the substep boundaries
        probe = np.concatenate([[0.0], np.geomspace(1e-18, dynamics._TAYLOR_THETA, 2000)])
        edges = []
        for lo, hi in zip(probe[:-1], probe[1:]):
            if taylor_degree(lo) == taylor_degree(hi):
                continue
            while np.nextafter(lo, np.inf) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if taylor_degree(mid) > taylor_degree(lo) else (mid, hi)
            edges += [lo, hi]
        assert len(edges) == 2 * taylor_degree(dynamics._TAYLOR_THETA)
        edges = np.array(edges)
        half = dynamics._TAYLOR_THETA * np.arange(1, 7)
        grid = np.linspace(0.0, 3.0, 3001)
        x = np.concatenate([grid, edges, *(k * edges for k in range(2, 6)), half, np.nextafter(half, np.inf)])
        substeps, degrees = dynamics._taylor_plan(x)
        expected_s = [max(1, math.ceil(v / dynamics._TAYLOR_THETA)) for v in x.tolist()]
        assert substeps.tolist() == expected_s
        assert degrees.tolist() == [taylor_degree(v / s) for v, s in zip(x.tolist(), expected_s)]

    @pytest.mark.parametrize(
        "kets, amplitudes, rwa",
        [
            pytest.param({(0, 0, 1): 1.0}, None, False, id="one-state"),
            pytest.param({(0, 0, 0): 0.6, (0, 0, 1): 0.8}, [0.3, 1.0], False, id="batched-both-blocks"),
            # RWA: the 1-dim vacuum block padded to the 3-dim single-excitation
            # block, then the 3-dim block, whose drift has a nonzero trace,
            # padded to the 4-dim double-excitation block; the amplitude 4 is
            # strong enough for two-substep exponentials on these small blocks
            pytest.param({(0, 0, 0): 0.6, (0, 0, 1): 0.8}, [0.3, 4.0], True, id="rwa-mixed-size-blocks"),
            pytest.param({(0, 0, 1): 0.6, (1, 0, 1): 0.8}, [0.3, 4.0], True, id="rwa-padded-block-with-trace"),
        ],
    )
    def test_every_exponential_takes_the_scalar_plan(self, kets, amplitudes, rwa, monkeypatch):
        # each exponential gets the substeps and degree that the scalar loop
        # gives for its own bound, and the kernel takes exactly substeps *
        # (degree + 1) products: one per power and one for the weighted sum
        params = ModelParams(kappa=0.01, n_max=3)
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        window, opts = (-4.0, 4.0), PropagationOptions(dt=0.2)
        psi0 = sum(weight * basis_state(*ket, params) for ket, weight in kets.items())
        taken, products = [], []
        kernel = dynamics._taylor_chunk

        def spy(product, gens, substeps, degrees, *rest):
            taken.extend(zip(substeps, degrees))

            def counted(*args, **kwargs):
                products.append(1)
                return product(*args, **kwargs)

            return kernel(counted, gens, substeps, degrees, *rest)

        monkeypatch.setattr(dynamics, "_taylor_chunk", spy)
        propagate(psi0, pair, params, window, opts, amplitudes=amplitudes, rwa=rwa)
        plan = scalar_plan(psi0, pair, params, window, opts, amplitudes or (1.0,), rwa)
        assert taken == plan
        assert {s for s, _ in plan} == {1, 2}
        assert len(products) == sum(s * (m + 1) for s, m in plan)

    def test_schedule_read_once_per_propagation(self):
        # one array read: inside both ends and at both Gauss nodes of every step
        params = ModelParams(n_max=2)
        pair = GaussianPair(g0=0.3, T=2.0, tau=1.0)
        reads = []

        class Counting:
            def values(self, t):
                reads.append(np.shape(t))
                return pair.values(t)

        traj = propagate(basis_state(0, 0, 1, params), Counting(), params, (-3.0, 3.0), PropagationOptions(dt=0.25))
        n_steps = traj.times.size - 1
        assert n_steps == 24
        assert reads == [(n_steps, 4)]


class TestStepperOrder:
    def test_fourth_order_convergence(self):
        # halving the step must cut the error 16-fold; a swapped factor order
        # or a single midpoint exponential cuts it only 4-fold
        params = ModelParams(kappa=0.01, n_max=3)
        pair = GaussianPair(g0=0.4, T=2.0, tau=1.0)
        window = (-5.0, 5.0)
        psi0 = superposition_initial(0.6, 0.8, params)

        def final(n_steps):
            opts = PropagationOptions(dt=(window[1] - window[0]) / n_steps)
            return propagate(psi0, pair, params, window, opts).final

        reference = final(4000)
        errors = [np.linalg.norm(final(n) - reference) for n in (50, 100, 200)]
        assert 14 <= errors[0] / errors[1] <= 18
        assert 14 <= errors[1] / errors[2] <= 18


class TestBlockPropagation:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.0, 1.0),
        n_max=st.sampled_from([2, 3]),
        rwa=st.booleans(),
        amp=st.floats(0.0, 0.6),
        alpha=st.sampled_from([0.0, 0.6]),
    )
    def test_property_matches_dense_chain(self, kappa, n_max, rwa, amp, alpha):
        params = ModelParams(kappa=kappa, n_max=n_max)
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        window, n_steps = (-4.0, 4.0), 40
        psi0 = superposition_initial(alpha, math.sqrt(1.0 - alpha**2), params)
        opts = PropagationOptions(dt=(window[1] - window[0]) / n_steps)
        (traj,) = propagate(psi0, pair, params, window, opts, amplitudes=[amp], rwa=rwa)
        chain = dense_cf4_chain(psi0, pair, params, window, n_steps, amp, rwa)
        np.testing.assert_allclose(traj.final, chain[-1], rtol=0, atol=1e-10)
        if alpha == 0.0:
            even, _ = conserved_blocks(params, False)
            assert np.all(traj.states[:, even] == 0)


    @pytest.mark.parametrize("numbers", [(0, 1), (0, 1, 2)], ids=["sizes-1-3", "sizes-1-3-4"])
    def test_rwa_mixed_size_blocks_match_dense_chain(self, numbers):
        # under RWA an input spread over excitation numbers 0, 1 (and 2)
        # fills blocks of sizes 1, 3 (and 4), which the stepper pads to one size
        params = ModelParams(kappa=0.3, n_max=3)
        pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
        window, n_steps = (-4.0, 4.0), 40
        n_exc = np.rint(excitation_operator(params).diagonal().real)
        if numbers == (0, 1):
            psi0 = superposition_initial(0.6, 0.8, params)
        else:
            rng = np.random.default_rng(5)
            psi0 = np.where(n_exc <= 2, rng.normal(size=params.dim) + 1j * rng.normal(size=params.dim), 0.0)
            psi0 /= np.linalg.norm(psi0)
        assert set(n_exc[np.flatnonzero(psi0)]) == set(numbers)
        amplitudes = [0.35, 0.6]
        opts = PropagationOptions(dt=(window[1] - window[0]) / n_steps)
        trajs = propagate(psi0, pair, params, window, opts, amplitudes=amplitudes, rwa=True)
        outside = ~np.isin(n_exc, numbers)
        for amp, traj in zip(amplitudes, trajs):
            chain = dense_cf4_chain(psi0, pair, params, window, n_steps, amp, rwa=True)
            np.testing.assert_allclose(traj.states, np.array(chain), rtol=0, atol=1e-10)
            assert np.all(traj.states[:, outside] == 0)


class TestPhotonPeak:
    # the reference point t_inv = 0.04, g0 = 0.3, at the default delay tau = 0.6 T
    PAIR = GaussianPair(g0=0.3, T=25.0, tau=15.0)

    def test_reference_point_peak_converges(self):
        # the default step's peak is within 1e-7 of the dt = 0.0125 peak, and
        # the error shrinks as the step halves toward the default
        params = ModelParams(kappa=0.005, n_max=8)
        psi0 = superposition_initial(0.0, 1.0, params)
        window = integration_window(self.PAIR)

        def peak(dt):
            return propagate(psi0, self.PAIR, params, window, PropagationOptions(dt=dt)).peak_mean_photon

        reference = peak(0.0125)
        default = PropagationOptions().dt
        errors = [abs(peak(dt) - reference) / reference for dt in (4 * default, 2 * default, default)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-7

    @pytest.mark.parametrize(
        "alpha, beta, seed",
        [
            pytest.param(0.0, 1.0, 0, id="in-bin-odd-block"),
            pytest.param(0.6, 0.8, 0, id="in-bin-both-blocks"),
            pytest.param(0.0, 1.0, 1, id="at-edge-odd-block"),
            pytest.param(0.6, 0.8, 3, id="at-edge-both-blocks"),
        ],
    )
    def test_piecewise_peak_beats_bin_edge_max(self, alpha, beta, seed):
        # oracle: each bin stepped densely with scipy expm of the dense
        # generator, <n> read after every substep.  With seed 0 the photon
        # peak falls inside a bin, where the bin-edge samples miss it; with
        # the other seeds it sits on a bin edge where d<n>/dt jumps, which
        # only slopes taken from each bin's own couplings reproduce
        params = ModelParams(kappa=0.005, n_max=6)
        rng = np.random.default_rng(seed)
        m, substeps = 20, 200
        sched = PiecewiseConstantSchedule(
            0.0, 1.25, rng.uniform(0, 0.3, m), rng.uniform(0, 0.3, m)
        )
        psi = superposition_initial(alpha, beta, params)
        traj = replay(psi, sched, params)
        n_values = np.repeat(np.arange(params.n_max + 1), 4)
        dense_peak = 0.0
        for k in range(m):
            step = scipy.linalg.expm(
                -1j * sched.dt / substeps * dense_generator(params, sched.values1[k], sched.values2[k])
            )
            for _ in range(substeps):
                psi = step @ psi
                dense_peak = max(dense_peak, float(np.abs(psi) ** 2 @ n_values))
        edge_peak = float((np.abs(traj.states) ** 2 @ n_values).max())
        assert abs(traj.peak_mean_photon - dense_peak) < 0.5 * (dense_peak - edge_peak) + 1e-12


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
                return np.full_like(t, np.nan), np.zeros_like(t)

        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(IntegrationError):
            propagate(psi0, BadSchedule(), self.PARAMS, (0.0, 1.0))

    def test_schedule_must_return_two_couplings(self):
        class ThreeCouplings:
            def values(self, t):
                return np.full_like(t, 0.1), np.full_like(t, 0.1), np.full_like(t, 0.1)

        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(ValueError):
            propagate(psi0, ThreeCouplings(), self.PARAMS, (0.0, 1.0))

    def test_nonfinite_node_coupling_names_its_step(self):
        # NaN only strictly inside step 3, so only that step's reads see it
        h = 0.1
        start = 0.0 + 3 * h

        class NodeNaN:
            def values(self, t):
                return np.where((start < t) & (t < start + h), math.nan, 0.1), np.full_like(t, 0.1)

        psi0 = basis_state(0, 0, 0, self.PARAMS)
        with pytest.raises(IntegrationError) as info:
            propagate(psi0, NodeNaN(), self.PARAMS, (0.0, 1.0), PropagationOptions(dt=h))
        assert str(info.value).endswith(f"in the step from t={start}")

    def test_options_carry_no_model(self):
        # the model is the propagators' rwa keyword, not a stepper setting
        with pytest.raises(TypeError):
            PropagationOptions(rwa=True)
