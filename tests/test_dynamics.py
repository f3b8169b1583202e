"""Propagator correctness against closed forms and the dense-exponential oracle."""

import math
import tracemalloc
from types import SimpleNamespace

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
    SweepFixed,
    basis_state,
    conserved_blocks,
    excitation_operator,
    gaussian_row,
    generators,
    integration_window,
    parity_operator,
    propagate,
    superposition_initial,
    transfer_efficiency,
    superposition_target,
)
from usctransfer import dynamics
from usctransfer.model import basis_labels, block_generators, coupling_operator, number_operator

from conftest import dense_generator, reciprocal_runs, reciprocal_schedule, replay


def one_piece_photon_peaks(times, states, params, layout, amps, left, right):
    """The peak of :func:`dynamics._photon_peaks`, each quantity formed over every sample at once.

    The same arithmetic on whole trajectories instead of blocks of samples:
    the oracle that the blocked peak must equal bit for bit.
    """
    blocks, _, (_, v1, v2) = layout
    n = np.zeros(v1.shape[:2])
    for b, idx in enumerate(blocks):
        n[b, : idx.size] = basis_labels(params)[0][idx]
    decay = -params.kappa * n * n
    comm = np.stack([(n[:, :, None] - n[:, None, :]) * v.real for v in (v1, v2)])
    on, rows, cols = np.nonzero(comm.any(axis=0))
    weights = 2.0 * comm[:, on, rows, cols]
    mean_n, drift = np.zeros(states.shape[:2]), np.zeros(states.shape[:2])
    coupled = np.zeros((2, *states.shape[:2]))
    for p, traj in enumerate(states):
        pop = traj.real**2 + traj.imag**2
        mean_n[p] = np.einsum("bj,kbj->k", n, pop)
        drift[p] = np.einsum("bj,kbj->k", decay, pop)
        coupled[:, p] = np.einsum("ce,ke->ck", weights, traj.real[:, on, rows] * traj.imag[:, on, cols])
    a = amps[:, None]
    h = np.diff(times)
    p0, p1 = mean_n[:, :-1], mean_n[:, 1:]
    m0 = h * (drift[:, :-1] + a * (left[:, 0] * coupled[0, :, :-1] + left[:, 1] * coupled[1, :, :-1]))
    m1 = h * (drift[:, 1:] + a * (right[:, 0] * coupled[0, :, 1:] + right[:, 1] * coupled[1, :, 1:]))
    c2 = 3.0 * (p1 - p0) - 2.0 * m0 - m1
    c3 = 2.0 * (p0 - p1) + m0 + m1
    disc = c2**2 - 3.0 * c3 * m0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(c2 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c2))
        roots = np.stack([q / (3.0 * c3), m0 / q])
    x = np.where((disc >= 0.0) & np.isfinite(roots), np.clip(roots, 0.0, 1.0), 0.0)
    inner = p0 + x * (m0 + x * (c2 + x * c3))
    return np.maximum(mean_n.max(axis=1), inner.max(axis=(0, 2)))


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

        def spy(times, states, params, layout, amps, left, right):
            seen.update(left=left, right=right)
            return photon_peaks(times, states, params, layout, amps, left, right)

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
        layout = block_generators(self.PARAMS, False, (0, 1))  # the input fills both parity blocks
        peak = dynamics._photon_peaks(traj.times, traj.block_states[None], self.PARAMS, layout, np.ones(1), bins, bins)
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


# inputs that reach both kernel paths: one matrix, and batched (amplitude,
# block) pairs on padded blocks.  :func:`kernel_run` steps them at 0.4, which
# gives every case exponentials of one and of two substeps
KERNEL_CASES = [
    pytest.param({(0, 0, 1): 1.0}, None, False, id="one-state"),
    pytest.param({(0, 0, 0): 0.6, (0, 0, 1): 0.8}, [0.3, 1.0], False, id="batched-both-blocks"),
    # RWA: the 1-dim vacuum block padded to the 3-dim single-excitation
    # block, then the 3-dim block, whose drift has a nonzero trace, padded
    # to the 4-dim double-excitation block; the amplitude 4 is strong enough
    # for two-substep exponentials on these small blocks
    pytest.param({(0, 0, 0): 0.6, (0, 0, 1): 0.8}, [0.3, 4.0], True, id="rwa-mixed-size-blocks"),
    pytest.param({(0, 0, 1): 0.6, (1, 0, 1): 0.8}, [0.3, 4.0], True, id="rwa-padded-block-with-trace"),
]


def kernel_run(kets, amplitudes, rwa, monkeypatch):
    """Propagate a KERNEL_CASES input while a spy watches :func:`dynamics._taylor_chunk`.

    Returns the input ``psi0``, ``params``, ``window``, the trajectories
    ``trajs``, the scalar ``plan`` and, per exponential, the (substeps,
    degree) the kernel took (``taken``) and a copy of its generators as one
    (pairs, d, d) array (``gens``), with the number of ``products`` the
    kernel made.  The spy counts the calls of every product that the
    kernel's ``bind`` returns and forwards them unchanged.
    """
    params = ModelParams(kappa=0.01, n_max=3)
    pair = GaussianPair(g0=1.0, T=2.0, tau=1.0)
    window, opts = (-4.0, 4.0), PropagationOptions(dt=0.4)
    psi0 = sum(weight * basis_state(*ket, params) for ket, weight in kets.items())
    taken, gens, products = [], [], []
    kernel = dynamics._taylor_chunk

    def spy(bind, mats, substeps, degrees, *rest):
        taken.extend(zip(substeps, degrees))
        gens.extend(np.array(mats).reshape(len(mats), -1, *mats.shape[-2:]))  # the buffer is reused

        def counted(a):
            product = bind(a)

            def count(*args):
                products.append(1)
                return product(*args)

            return count

        return kernel(counted, mats, substeps, degrees, *rest)

    monkeypatch.setattr(dynamics, "_taylor_chunk", spy)
    trajs = propagate(psi0, pair, params, window, opts, amplitudes=amplitudes, rwa=rwa)
    plan = scalar_plan(psi0, pair, params, window, opts, amplitudes or (1.0,), rwa)
    trajs = trajs if amplitudes else [trajs]
    return SimpleNamespace(psi0=psi0, params=params, window=window, trajs=trajs, plan=plan, taken=taken, gens=gens,
                           products=len(products))


def reference_states(psi0, params, rwa, window, plan, gens):
    """Every step's full-space states by a plain loop of ``np.dot`` calls, shape (G, steps + 1, dim).

    Exponential f applies its generators ``gens[f]``, one per (amplitude,
    block) pair, ``s`` times as the degree-m Taylor sum of its ``plan`` entry
    (s, m): the powers X^j v one ``np.dot`` at a time, then their sum with the
    1/j! weights as one more.  Each step ends with the phase of the block's
    trace shift, as :func:`propagate` applies it.
    """
    occupied = tuple(b for b, idx in enumerate(conserved_blocks(params, rwa)) if psi0[idx].any())
    blocks, mu, _ = block_generators(params, rwa, occupied)
    pairs, d = gens[0].shape[:2]
    nb, n_steps = len(blocks), len(plan) // 2
    h = (window[1] - window[0]) / n_steps
    v = np.zeros((pairs, d), dtype=complex)  # pair i = (amplitude i // nb, block i % nb)
    for i in range(pairs):
        idx = blocks[i % nb]
        v[i, : idx.size] = psi0[idx]
    weights = np.array([[1.0 / math.factorial(j) for j in range(max(m for _, m in plan) + 1)]], dtype=complex)
    steps = [v.copy()]
    for f, (x, (s, m)) in enumerate(zip(gens, plan)):
        for i in range(pairs):
            for _ in range(s):
                powers = [v[i]]
                for _ in range(m):
                    powers.append(np.dot(x[i], powers[-1]))
                v[i] = np.dot(weights[:, : m + 1], np.array(powers))[0]
        if f % 2:
            steps.append(v.copy())
    steps = np.array(steps).reshape(n_steps + 1, -1, nb, d).swapaxes(0, 1)
    steps[:, 1:] *= np.cumprod(np.tile(np.exp(-1j * h * mu), (n_steps, 1)), axis=0)[:, :, None]
    states = np.zeros((steps.shape[0], n_steps + 1, params.dim), dtype=complex)
    for b, idx in enumerate(blocks):
        states[..., idx] = steps[..., b, : idx.size]
    return states


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

    @pytest.mark.parametrize("kets, amplitudes, rwa", KERNEL_CASES)
    def test_every_exponential_takes_the_scalar_plan(self, kets, amplitudes, rwa, monkeypatch):
        # each exponential gets the substeps and degree that the scalar loop
        # gives for its own bound, and the kernel takes exactly substeps *
        # (degree + 1) products: one per power and one for the weighted sum
        run = kernel_run(kets, amplitudes, rwa, monkeypatch)
        assert run.taken == run.plan
        assert {s for s, _ in run.plan} == {1, 2}
        assert run.products == sum(s * (m + 1) for s, m in run.plan)

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


class TestTaylorKernel:
    @pytest.mark.parametrize("kets, amplitudes, rwa", KERNEL_CASES)
    def test_states_equal_a_plain_dot_loop(self, kets, amplitudes, rwa, monkeypatch):
        # the kernel's dispatch-free products are the plain np.dot loop's,
        # with the same operands in the same order, so every state is equal
        # to the last bit
        run = kernel_run(kets, amplitudes, rwa, monkeypatch)
        assert len(run.gens) == len(run.plan)
        expected = reference_states(run.psi0, run.params, rwa, run.window, run.plan, run.gens)
        assert len(run.trajs) == expected.shape[0]
        for traj, states in zip(run.trajs, expected):
            np.testing.assert_array_equal(traj.states, states)


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

    @pytest.mark.parametrize("rwa, size", [(False, 18), (True, 3)], ids=["rabi", "rwa"])
    def test_trajectory_keeps_only_the_occupied_block(self, rwa, size):
        # the default input lies in the odd parity block (Rabi) or the
        # single-excitation block (RWA); the full-space states are built from it
        params = ModelParams()
        psi0 = superposition_initial(0.0, 1.0, params)
        traj = propagate(psi0, GaussianPair(g0=0.3, T=25.0, tau=15.0), params, (-50.0, 50.0), rwa=rwa)
        assert traj.block_states.shape == (traj.times.size, 1, size)
        (idx,) = traj.blocks
        assert any(np.array_equal(idx, block) for block in conserved_blocks(params, rwa))
        states = traj.states
        assert states.shape == (traj.times.size, params.dim)
        np.testing.assert_array_equal(states[:, idx], traj.block_states[:, 0])
        assert np.all(np.delete(states, idx, axis=1) == 0)
        np.testing.assert_array_equal(states[-1], traj.final)



class TestExpect:
    # oracle: the full-space populations |states|^2 contracted with D; at
    # (0.6, 0.8) the RWA run fills padded blocks of sizes 1 and 3
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.6, 0.8)], ids=["0-1", "0.6-0.8"])
    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    def test_matches_full_space_populations(self, rwa, alpha, beta):
        params = ModelParams(kappa=0.05, n_max=4)
        psi0 = superposition_initial(alpha, beta, params)
        traj = propagate(psi0, GaussianPair(g0=0.5, T=4.0, tau=2.4), params, (-8.0, 8.0), rwa=rwa)
        if rwa and alpha:
            assert [idx.size for idx in traj.blocks] == [1, 3]
        rng = np.random.default_rng(3)
        for diagonal in (rng.random(params.dim), rng.random((params.dim, 3))):
            expected = np.abs(traj.states) ** 2 @ diagonal
            assert traj.expect(diagonal).shape == expected.shape
            np.testing.assert_allclose(traj.expect(diagonal), expected, rtol=0, atol=1e-15)

    def test_amplitude_batched_row_matches_full_space_populations(self):
        fixed = SweepFixed(params=ModelParams(n_max=4), options=PropagationOptions(dt=0.2))
        row = gaussian_row(0.2, [0.1, 0.3, 0.5], fixed)
        rng = np.random.default_rng(4)
        diagonal = rng.random((fixed.params.dim, 3))
        for _, traj in row:
            for d in (diagonal[:, 0], diagonal):
                np.testing.assert_allclose(traj.expect(d), np.abs(traj.states) ** 2 @ d, rtol=0, atol=1e-15)

    @staticmethod
    def default_run():
        params = ModelParams()
        return params, propagate(superposition_initial(0.0, 1.0, params), GaussianPair(g0=0.3, T=4.0, tau=2.4),
                                 params, (-8.0, 8.0))

    @pytest.mark.parametrize("shape", [(35,), (37, 2), (36, 2, 1), ()], ids=str)
    def test_rejects_a_diagonal_of_another_dimension(self, shape):
        _, traj = self.default_run()
        with pytest.raises(ValueError, match="diagonal has shape"):
            traj.expect(np.ones(shape))

    def test_accepts_a_complex_diagonal_with_zero_imaginary_part(self):
        params, traj = self.default_run()
        n = number_operator(params).diagonal()  # the library's operators are complex
        assert np.iscomplexobj(n)
        np.testing.assert_array_equal(traj.expect(n), traj.expect(n.real))

    def test_rejects_a_diagonal_that_is_not_real(self):
        params, traj = self.default_run()
        with pytest.raises(ValueError, match="not real"):
            traj.expect(1j * np.ones(params.dim))

RECIPROCAL_INPUTS = [(0.0, 1.0), (0.6, 0.8), (0.6, 0.48 + 0.64j)]


class TestReciprocity:
    # conftest.reciprocal_runs: a run and its reciprocal (qubits exchanged,
    # schedule time-reversed, beta conjugated) transfer equally well.  CF4 is
    # a symmetric scheme and reads each step at mirrored points, so the
    # identity holds at every step, not only in the limit; it checks the
    # drift of each qubit and the step's pairing of couplings with states.
    # The schedules are asymmetric (a Gaussian pair is its own reciprocal),
    # and F stays well away from 0, where a wrong model could tie both runs
    PARAMS = ModelParams(eps1=1.0, eps2=0.9)
    WINDOW = (0.0, 30.0)

    @staticmethod
    def smooth(t):
        t = np.asarray(t)
        g1 = 0.25 * np.exp(-(((t - 11.0) / 6.0) ** 2)) * (1.0 + 0.3 * np.sin(t))
        g2 = 0.2 * np.exp(-(((t - 17.0) / 5.0) ** 2)) + 0.02 * t / 30.0
        return g1, g2

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    @pytest.mark.parametrize("dt", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("alpha, beta", RECIPROCAL_INPUTS)
    def test_smooth_schedule_at_every_step(self, rwa, dt, alpha, beta):
        t0, t1 = self.WINDOW
        forward = SimpleNamespace(values=self.smooth)
        backward = SimpleNamespace(values=lambda t: self.smooth(t0 + t1 - np.asarray(t))[::-1])
        f = [
            transfer_efficiency(propagate(psi0, sched, params, self.WINDOW, PropagationOptions(dt=dt), rwa=rwa).final,
                                target)
            for sched, (params, psi0, target) in zip((forward, backward), reciprocal_runs(self.PARAMS, alpha, beta))
        ]
        assert f[0] > 0.1
        assert abs(f[0] - f[1]) <= 1e-13

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    @pytest.mark.parametrize("alpha, beta", RECIPROCAL_INPUTS)
    def test_piecewise_replay(self, rwa, alpha, beta):
        rng = np.random.default_rng(10)
        sched = PiecewiseConstantSchedule(0.0, 1.25, rng.uniform(0, 0.3, 20), rng.uniform(0, 0.3, 20))
        f = [
            transfer_efficiency(replay(psi0, s, params, rwa=rwa).final, target)
            for s, (params, psi0, target) in zip((sched, reciprocal_schedule(sched)),
                                                 reciprocal_runs(self.PARAMS, alpha, beta))
        ]
        assert f[0] > 0.1
        assert abs(f[0] - f[1]) <= 1e-13


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

    def test_peak_at_the_step_the_cli_takes(self):
        # the default one-block input steps the reference point at
        # 0.1 sqrt(0.1 / 0.04), about 0.158; its peak stays within 1e-7 of the
        # dt = 0.0125 peak
        fixed = SweepFixed()
        psi0 = superposition_initial(fixed.alpha, fixed.beta, fixed.params)
        window = integration_window(self.PAIR)
        reference = propagate(psi0, self.PAIR, fixed.params, window, PropagationOptions(dt=0.0125)).peak_mean_photon
        record, traj = gaussian_row(0.04, [0.3], fixed)[0]
        assert 0.15 < np.diff(traj.times).max() < 0.16
        assert abs(record.peak_mean_photon - reference) / reference <= 1e-7

    @pytest.mark.parametrize(
        "alpha, beta, seed, rwa",
        [
            pytest.param(0.0, 1.0, 0, False, id="in-bin-odd-block"),
            pytest.param(0.6, 0.8, 0, False, id="in-bin-both-blocks"),
            pytest.param(0.0, 1.0, 1, False, id="at-edge-odd-block"),
            pytest.param(0.6, 0.8, 3, False, id="at-edge-both-blocks"),
            pytest.param(0.6, 0.8, 7, True, id="in-bin-rwa-padded-blocks"),
        ],
    )
    def test_piecewise_peak_beats_bin_edge_max(self, alpha, beta, seed, rwa):
        # oracle: each bin stepped densely with scipy expm of the dense
        # generator, <n> read after every substep.  With seed 0 the photon
        # peak falls inside a bin, where the bin-edge samples miss it; with
        # the other seeds it sits on a bin edge where d<n>/dt jumps, which
        # only slopes taken from each bin's own couplings reproduce.  Under
        # RWA the input fills the 1- and 3-dim excitation blocks, the one
        # layout with a padded block; with seed 7 its peak falls inside a bin
        params = ModelParams(kappa=0.005, n_max=6)
        rng = np.random.default_rng(seed)
        m, substeps = 20, 200
        sched = PiecewiseConstantSchedule(
            0.0, 1.25, rng.uniform(0, 0.3, m), rng.uniform(0, 0.3, m)
        )
        psi = superposition_initial(alpha, beta, params)
        traj = replay(psi, sched, params, rwa)
        n_values = np.repeat(np.arange(params.n_max + 1), 4)
        dense_peak = 0.0
        for k in range(m):
            step = scipy.linalg.expm(
                -1j * sched.dt / substeps * dense_generator(params, sched.values1[k], sched.values2[k], rwa)
            )
            for _ in range(substeps):
                psi = step @ psi
                dense_peak = max(dense_peak, float(np.abs(psi) ** 2 @ n_values))
        edge_peak = float((np.abs(traj.states) ** 2 @ n_values).max())
        assert abs(traj.peak_mean_photon - dense_peak) < 0.5 * (dense_peak - edge_peak) + 1e-12

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    @pytest.mark.parametrize("block_bytes", [8, 3000, None], ids=["one-interval", "uneven", "default"])
    def test_blocked_peak_equals_the_one_piece_formula(self, rwa, block_bytes, monkeypatch):
        # the blocked peak against the one-piece oracle, with ==, on four
        # amplitudes of a Gaussian pair (364 steps) and on a replay of 600
        # bins, one step per bin, so that every block edge is a jump of the
        # schedule.  The input fills both blocks, with 128 coupled entries
        # under Rabi and 4 under RWA: blocks of 1 interval, of 2 (Rabi) or 93
        # (RWA), and by default of 256 (Rabi) or one block per run (RWA)
        if block_bytes is not None:
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", block_bytes)
        photon_peaks, seen = dynamics._photon_peaks, []

        def spy(*args):
            seen.append(args)
            return photon_peaks(*args)

        monkeypatch.setattr(dynamics, "_photon_peaks", spy)
        params = ModelParams()
        psi0 = superposition_initial(0.6, 0.8, params)
        rng = np.random.default_rng(5)
        sched = PiecewiseConstantSchedule(0.0, 0.25, rng.uniform(0, 0.3, 600), rng.uniform(0, 0.3, 600))
        window = integration_window(self.PAIR)
        trajs = propagate(psi0, self.PAIR, params, window, PropagationOptions(dt=0.5), [0.2, 0.0, 1.0, 1.7], rwa=rwa)
        trajs.append(replay(psi0, sched, params, rwa))
        for args, runs in zip(seen, [trajs[:4], trajs[4:]], strict=True):
            peaks = [run.peak_mean_photon for run in runs]
            assert peaks == one_piece_photon_peaks(*args).tolist()

    def test_peak_memory_stays_near_the_trajectory(self):
        # the peak's temporaries span one block of samples, not the
        # trajectory: formed over all 19,201 samples at once they took the
        # traced peak of this run to 7.2x the block states
        params = ModelParams()
        psi0 = superposition_initial(0.0, 1.0, params)
        args = (psi0, GaussianPair(0.3, 25.0, 17.5), params, (-120.0, 120.0), PropagationOptions(dt=0.0125))
        propagate(*args)  # builds the cached model operators
        tracemalloc.start()
        try:
            traj = propagate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == 19201
        assert peak < 2.5 * traj.block_states.nbytes


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

    @pytest.mark.parametrize("dim", [4, 13], ids=["shorter", "longer"])
    def test_initial_of_another_dimension_rejected(self, dim):
        psi0 = np.eye(dim, dtype=complex)[0]
        with pytest.raises(ValueError, match=rf"^state has shape \({dim},\), expected \(12,\)$"):
            propagate(psi0, constant_schedule(0.1, 0.1, 1.0), self.PARAMS, (0.0, 1.0))

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
