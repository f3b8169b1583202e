"""Basis indexing, operator algebra and Hamiltonian structure."""

from dataclasses import replace

import numpy as np
import pytest

from usctransfer import (
    ModelParams,
    basis_state,
    conserved_blocks,
    excitation_operator,
    generators,
    flat_index,
    parity_operator,
    superposition_initial,
    superposition_target,
)
from usctransfer.model import (
    annihilation,
    basis_labels,
    block_generators,
    coupling_operator,
    drift_hamiltonian,
    number_operator,
    qubit_lowering,
)

P1 = ModelParams(n_max=1)
P3 = ModelParams(n_max=3)


def generator(params, g1, g2, rwa=False):
    """K(g1, g2) = K0 + g1 V1 + g2 V2 from the library's generator builder."""
    k0, v1, v2 = generators(params, rwa)
    return k0 + g1 * v1 + g2 * v2


def hamiltonian(params, g1, g2, rwa=False):
    """Hermitian H(g1, g2): the generator without cavity loss."""
    return generator(replace(params, kappa=0.0), g1, g2, rwa)


class TestIndexing:
    def test_ground_state_index(self):
        state = basis_state(0, 0, 0, P1)
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

    def test_one_photon_excited_qubit1(self):
        state = basis_state(1, 0, 1, P1)
        assert state[5] == 1.0 and np.count_nonzero(state) == 1

    def test_photon_number_beyond_cutoff(self):
        with pytest.raises(ValueError):
            basis_state(2, 1, 1, P1)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            basis_state(0, 2, 0, P1)

    def test_bijection_over_full_space(self):
        for flat in range(P3.dim):
            n, s2, s1 = np.unravel_index(flat, (P3.n_max + 1, 2, 2))
            assert flat_index(n, s2, s1, P3) == flat
            state = basis_state(n, s2, s1, P3)
            assert int(np.argmax(np.abs(state))) == flat

    def test_label_table_matches_divmod(self):
        params = ModelParams(eps1=0.97, eps2=1.11, n_max=3)
        labels = basis_labels(params)
        assert labels.shape == (3, params.dim) and not labels.flags.writeable
        assert basis_labels(replace(params)) is labels
        drift = drift_hamiltonian(params).diagonal()
        for flat in range(params.dim):
            n, rest = divmod(flat, 4)
            s2, s1 = divmod(rest, 2)
            assert tuple(labels[:, flat]) == (n, s2, s1)
            # the per-state loop that the table replaced, to the last bit
            assert drift[flat] == n + params.eps1 * s1 + params.eps2 * s2

    def test_dim(self):
        assert P1.dim == 8 and P3.dim == 16


class TestSuperpositions:
    def test_pure_ground_component(self):
        np.testing.assert_array_equal(
            superposition_initial(1.0, 0.0, P1), basis_state(0, 0, 0, P1)
        )

    def test_pure_excited_component(self):
        np.testing.assert_array_equal(
            superposition_initial(0.0, 1.0, P1), basis_state(0, 0, 1, P1)
        )

    def test_equal_superposition(self):
        state = superposition_initial(1 / np.sqrt(2), 1 / np.sqrt(2), P1)
        np.testing.assert_allclose(state[0], state[1])
        np.testing.assert_allclose(np.vdot(state, state).real, 1.0, atol=1e-12)

    def test_target_lives_on_qubit2(self):
        state = superposition_target(0.0, 1.0, P1)
        assert state[2] == 1.0 and np.count_nonzero(state) == 1

    def test_unnormalized_pair_rejected(self):
        with pytest.raises(ValueError):
            superposition_initial(1.0, 0.5, P1)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (0.0, complex(1.0, np.nan)), (np.inf, 0.0)])
    def test_non_finite_pair_rejected(self, alpha, beta):
        for build in (superposition_initial, superposition_target):
            with pytest.raises(ValueError, match="is not 1"):
                build(alpha, beta, P1)


class TestLadderOperators:
    def test_annihilation_lowers_one_photon(self):
        a = annihilation(P1)
        np.testing.assert_allclose(a @ basis_state(1, 0, 0, P1), basis_state(0, 0, 0, P1))

    def test_vacuum_annihilates(self):
        a = annihilation(P1)
        for s2, s1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.testing.assert_array_equal(a @ basis_state(0, s2, s1, P1), np.zeros(P1.dim))

    def test_number_spectrum(self):
        # dense eigensolve: a^dag a on the n_max=3 space has 0..3, each 4-fold
        a = annihilation(P3)
        eigenvalues = np.linalg.eigvalsh(a.conj().T @ a)
        np.testing.assert_allclose(np.sort(eigenvalues), np.repeat([0, 1, 2, 3], 4), atol=1e-12)

    def test_commutator_truncation_artifact(self):
        # [a, a^dag] = 1 below the cutoff; the top Fock row absorbs the
        # truncation (entry -n_max instead of +1).
        a = annihilation(P3)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.diag(np.repeat([1.0, 1.0, 1.0, -3.0], 4))
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_qubit_lowering(self):
        np.testing.assert_allclose(
            qubit_lowering(1, P1) @ basis_state(0, 0, 1, P1), basis_state(0, 0, 0, P1)
        )

    def test_qubit2_lowering_on_ground(self):
        np.testing.assert_array_equal(
            qubit_lowering(2, P1) @ basis_state(0, 0, 1, P1), np.zeros(P1.dim)
        )

    def test_two_level_completeness(self):
        sm = qubit_lowering(1, P1)
        sp = sm.conj().T
        np.testing.assert_allclose(sp @ sm + sm @ sp, np.eye(P1.dim), atol=1e-12)

    def test_invalid_qubit_id(self):
        with pytest.raises(ValueError):
            qubit_lowering(3, P1)


class TestHamiltonians:
    def test_uncoupled_limit_is_diagonal(self):
        params = ModelParams(eps1=0.9, eps2=1.1, n_max=2)
        h = hamiltonian(params, 0.0, 0.0)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        for flat in range(params.dim):
            n, s2, s1 = np.unravel_index(flat, (params.n_max + 1, 2, 2))
            expected = n + params.eps1 * s1 + params.eps2 * s2
            np.testing.assert_allclose(h[flat, flat], expected)

    def test_single_coupling_matrix_element(self):
        g1 = 0.17
        h = hamiltonian(P1, g1, 0.0)
        row = flat_index(1, 0, 0, P1)
        col = flat_index(0, 0, 1, P1)
        np.testing.assert_allclose(h[row, col], g1)

    @pytest.mark.parametrize("g1,g2", [(0.3, 0.3), (0.12, 0.47), (0.0, 0.25)])
    def test_hermitian(self, g1, g2):
        h = hamiltonian(P3, g1, g2)
        assert np.abs(h - h.conj().T).max() < 1e-12
        h_rwa = hamiltonian(P3, g1, g2, rwa=True)
        assert np.abs(h_rwa - h_rwa.conj().T).max() < 1e-12

    def test_parity_commutes_with_rabi(self):
        h = hamiltonian(P3, 0.3, 0.3)
        pi = parity_operator(P3)
        assert np.abs(h @ pi - pi @ h).max() < 1e-12

    def test_excitation_commutes_with_rwa(self):
        h = hamiltonian(P3, 0.21, 0.34, rwa=True)
        n_exc = excitation_operator(P3)
        assert np.abs(h @ n_exc - n_exc @ h).max() == 0.0

    def test_rwa_drops_counter_rotating_element(self):
        g1 = 0.29
        h = hamiltonian(P1, g1, 0.0, rwa=True)
        assert h[flat_index(1, 0, 0, P1), flat_index(0, 0, 1, P1)] == g1
        # a^dag sigma_+^1 would connect |0,g,g> -> |1,g,e1>: absent in the RWA
        assert h[flat_index(1, 0, 1, P1), flat_index(0, 0, 0, P1)] == 0.0
        assert hamiltonian(P1, g1, 0.0)[flat_index(1, 0, 1, P1), flat_index(0, 0, 0, P1)] == g1

    def test_counter_rotating_terms_change_excitation_by_two(self):
        diff = hamiltonian(P3, 0.3, 0.2) - hamiltonian(P3, 0.3, 0.2, rwa=True)
        n_exc = np.real(np.diag(excitation_operator(P3)))
        rows, cols = np.nonzero(np.abs(diff) > 1e-14)
        assert rows.size > 0
        np.testing.assert_array_equal(np.abs(n_exc[rows] - n_exc[cols]), 2.0)

    def test_drift_matches_rabi_at_zero_coupling(self):
        np.testing.assert_array_equal(drift_hamiltonian(P3), hamiltonian(P3, 0.0, 0.0))


class TestEffectiveHamiltonian:
    def test_lossless_limit(self):
        params = ModelParams(kappa=0.0, n_max=2)
        h = (
            drift_hamiltonian(params)
            + 0.1 * coupling_operator(1, params)
            + 0.1 * coupling_operator(2, params)
        )
        np.testing.assert_array_equal(generator(params, 0.1, 0.1), h)

    def test_imaginary_diagonal(self):
        params = ModelParams(kappa=0.02, n_max=3)
        k = generator(params, 0.0, 0.0)
        for flat in range(params.dim):
            n = flat // 4
            np.testing.assert_allclose(k[flat, flat].imag, -params.kappa * n / 2)

    def test_anti_hermitian_part(self):
        params = ModelParams(kappa=0.005, n_max=3)
        k = generator(params, 0.3, 0.2)
        anti = (k - k.conj().T) / 2
        np.testing.assert_allclose(
            anti, -0.5j * params.kappa * number_operator(params), atol=1e-14
        )

    def test_eigenvalues_decay(self):
        # dense eigensolve: every mode must damp, never grow
        params = ModelParams(kappa=0.005, n_max=3)
        k = generator(params, 0.3, 0.3)
        assert np.linalg.eigvals(k).imag.max() <= 1e-14


class TestConservedQuantities:
    def test_parity_squares_to_identity(self):
        pi = parity_operator(P3)
        np.testing.assert_array_equal(pi @ pi, np.eye(P3.dim))

    def test_excitation_counts(self):
        state = basis_state(2, 1, 0, P3)
        np.testing.assert_allclose(excitation_operator(P3) @ state, 3.0 * state)

    def test_parity_trace_vanishes_on_nmax1(self):
        assert np.trace(parity_operator(P1)) == 0.0

    @pytest.mark.parametrize("rwa", [False, True], ids=["rabi", "rwa"])
    def test_parity_blocks_split_the_generator(self, rwa):
        even, odd = conserved_blocks(P3, False)
        np.testing.assert_array_equal(np.sort(np.concatenate([even, odd])), np.arange(P3.dim))
        np.testing.assert_array_equal(np.diag(parity_operator(P3))[even], 1.0)
        np.testing.assert_array_equal(np.diag(parity_operator(P3))[odd], -1.0)
        k = generator(replace(P3, kappa=0.3), 0.2, 0.1, rwa)
        assert not np.any(k[np.ix_(even, odd)]) and not np.any(k[np.ix_(odd, even)])

    @pytest.mark.parametrize("params", [P3, ModelParams(n_max=8)], ids=["nmax3", "nmax8"])
    def test_conserved_blocks_partition_the_space(self, params):
        for rwa in (False, True):
            blocks = conserved_blocks(params, rwa)
            np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), np.arange(params.dim))

    @pytest.mark.parametrize("params", [P3, ModelParams(n_max=8)], ids=["nmax3", "nmax8"])
    def test_excitation_blocks_sizes_and_labels(self, params):
        blocks = conserved_blocks(params, True)
        assert [b.size for b in blocks] == [1, 3] + [4] * (params.n_max - 1) + [3, 1]
        n_exc = np.diag(excitation_operator(params)).real
        for number, block in enumerate(blocks):
            np.testing.assert_array_equal(n_exc[block], number)

    def test_rwa_generator_is_block_diagonal_on_excitation_blocks(self):
        # loss included: the check runs on the generator the library steps with
        blocks = conserved_blocks(P3, True)
        k = generator(replace(P3, kappa=0.3), 0.2, 0.1, rwa=True)
        for i, row in enumerate(blocks):
            for j, col in enumerate(blocks):
                assert i == j or not np.any(k[np.ix_(row, col)])

    def test_rabi_generator_couples_excitation_blocks(self):
        # the counter-rotating terms change N by two, so excitation blocks
        # must never be handed to a Rabi run
        blocks = conserved_blocks(P3, True)
        k = generator(replace(P3, kappa=0.3), 0.2, 0.1)
        coupled = [(i, j) for i, row in enumerate(blocks) for j, col in enumerate(blocks)
                   if i != j and np.any(k[np.ix_(row, col)])]
        assert coupled and all(abs(i - j) == 2 for i, j in coupled)

    def test_coupling_operator_hermitian(self):
        for rwa in (False, True):
            v = coupling_operator(1, P3, rwa=rwa)
            np.testing.assert_allclose(v, v.conj().T, atol=1e-15)


def layout_oracle(params, rwa, numbers):
    """Indices, mu and unpadded (K0 - mu, V1, V2) of each block, from the excitation operator.

    The sectors are the parity classes of the excitation number under the
    Rabi model and its eigenspaces under RWA; the operators are cut from the
    model's drift, number and coupling operators, not from ``generators``.
    """
    n_exc = np.rint(excitation_operator(params).diagonal().real).astype(int)
    sector = n_exc if rwa else n_exc % 2
    k0 = drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params)
    v1, v2 = (coupling_operator(i, params, rwa=rwa) for i in (1, 2))
    for q in numbers:
        idx = np.flatnonzero(sector == q)
        cut = np.ix_(idx, idx)
        mu = np.trace(k0[cut]) / idx.size
        yield idx, mu, np.stack([k0[cut] - mu * np.eye(idx.size), v1[cut], v2[cut]])


class TestBlockGenerators:
    PARAMS = ModelParams(kappa=0.3, n_max=3)

    @pytest.mark.parametrize(
        "rwa, numbers, sizes",
        [
            pytest.param(False, (0, 1), [8, 8], id="rabi-both"),
            pytest.param(False, (1,), [8], id="rabi-odd"),
            pytest.param(True, (0, 1, 2), [1, 3, 4], id="rwa-1-3-4"),
            pytest.param(True, (2, 4, 5), [4, 3, 1], id="rwa-4-3-1"),
        ],
    )
    def test_matches_excitation_sector_oracle(self, rwa, numbers, sizes):
        blocks, mu, ops = block_generators(self.PARAMS, rwa, numbers)
        d = max(sizes)
        assert [idx.size for idx in blocks] == sizes
        assert mu.shape == (len(numbers),) and ops.shape == (3, len(numbers), d, d)
        for b, (idx, mu_b, expected) in enumerate(layout_oracle(self.PARAMS, rwa, numbers)):
            n = idx.size
            np.testing.assert_array_equal(blocks[b], idx)
            np.testing.assert_allclose(mu[b], mu_b, rtol=1e-15, atol=0)
            np.testing.assert_allclose(ops[:, b, :n, :n], expected, rtol=0, atol=1e-15)
            assert not np.any(ops[:, b, n:, :]) and not np.any(ops[:, b, :, n:])

    def test_no_blocks(self):
        blocks, mu, ops = block_generators(self.PARAMS, False, ())
        assert blocks == () and mu.shape == (0,) and ops.shape == (3, 0, 0, 0)

    def test_cached_and_read_only(self):
        layout = block_generators(self.PARAMS, True, (0, 1, 2))
        assert layout is block_generators(self.PARAMS, True, (0, 1, 2))
        blocks, mu, ops = layout
        for array in (*blocks, mu, ops):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestParamValidation:
    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(kappa=-0.1)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite"):
            ModelParams(kappa=kappa)

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(n_max=0)

    @pytest.mark.parametrize("n_max", [2, 8, 40])
    def test_kappa_whose_largest_loss_trace_overflows_rejected(self, n_max):
        # kappa n_max (n_max + 1) / 2 is the largest block trace of the loss term; below it the generators are finite
        limit = np.finfo(float).max / (n_max * (n_max + 1) / 2)
        with np.errstate(all="raise"):
            for rwa, blocks in ((False, 2), (True, n_max + 3)):
                block_generators(ModelParams(kappa=0.999 * limit, n_max=n_max), rwa, tuple(range(blocks)))
        with pytest.raises(ValueError, match=f"^kappa must keep kappa n_max .* at n_max {n_max}$"):
            ModelParams(kappa=1.001 * limit, n_max=n_max)

    @pytest.mark.parametrize("n_max", [201, 5000])
    def test_cutoff_above_the_bound_rejected(self, n_max):
        assert ModelParams(n_max=200).dim == 804
        with pytest.raises(ValueError, match=f"^n_max must be between 1 and 200, got {n_max}$"):
            ModelParams(n_max=n_max)
