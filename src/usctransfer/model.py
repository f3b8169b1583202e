"""Hilbert space, operators and Hamiltonians of the two-qubit / one-cavity system.

Two two-level systems (splittings ``eps1``, ``eps2``) couple to a single
cavity mode (frequency ``omega_c``) through their ``sigma_x``-like dipole
operators.  The full Rabi Hamiltonian keeps the counter-rotating terms that
matter once the couplings reach a sizeable fraction of ``omega_c``; the RWA
variant drops them and then conserves the total excitation number exactly.
Cavity photon loss at rate ``kappa`` enters as the anti-Hermitian term
``-(i/2) kappa a^dag a`` of the non-Hermitian generator that
``dynamics.generators`` assembles from these operators, so the squared norm
of a propagated state decays by exactly the leaked population.

The oscillator ladder is truncated at ``n_max`` photons and the basis is the
factorized set ``|n, s2, s1>`` with the first qubit varying fastest, i.e.
flat index ``n*4 + s2*2 + s1``.  All operators are dense complex matrices;
the spaces of interest stay small (dim = 4*(n_max+1)).

Frequencies are expressed in units of a reference frequency (``omega_c = 1``
by convention) and times in the inverse of that unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "BasisIndex",
    "flat_index",
    "basis_index",
    "basis_state",
    "superposition_initial",
    "superposition_target",
    "annihilation",
    "creation",
    "number_operator",
    "qubit_lowering",
    "qubit_raising",
    "drift_hamiltonian",
    "coupling_operator",
    "excitation_operator",
    "parity_operator",
]

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_IDENTITY2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the tripartite system.

    ``omega_c`` is the cavity frequency, ``eps1``/``eps2`` the qubit
    splittings, ``kappa`` the cavity decay rate (all in units of the
    reference frequency) and ``n_max`` the Fock cutoff (photons 0..n_max).
    The resonant case ``eps1 = eps2 = omega_c`` is the default.
    """

    omega_c: float = 1.0
    eps1: float = 1.0
    eps2: float = 1.0
    kappa: float = 0.005
    n_max: int = 8

    def __post_init__(self) -> None:
        if not self.omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated Hilbert space, 4*(n_max+1)."""
        return 4 * (self.n_max + 1)


class BasisIndex(NamedTuple):
    """Factorized basis label |n, s2, s1> (s = 0 ground, 1 excited)."""

    n: int
    s2: int
    s1: int


def flat_index(n: int, s2: int, s1: int, params: ModelParams) -> int:
    """Flat position of |n, s2, s1> in the amplitude vector (s1 fastest)."""
    if not 0 <= n <= params.n_max:
        raise ValueError(f"photon number {n} outside 0..{params.n_max}")
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError(f"qubit levels must be 0 or 1, got s2={s2}, s1={s1}")
    return n * 4 + s2 * 2 + s1


def basis_index(flat: int, params: ModelParams) -> BasisIndex:
    """Inverse of :func:`flat_index`."""
    if not 0 <= flat < params.dim:
        raise ValueError(f"flat index {flat} outside 0..{params.dim - 1}")
    n, rest = divmod(flat, 4)
    s2, s1 = divmod(rest, 2)
    return BasisIndex(n, s2, s1)


def basis_state(n: int, s2: int, s1: int, params: ModelParams) -> np.ndarray:
    """Unit amplitude vector for the basis ket |n, s2, s1>."""
    state = np.zeros(params.dim, dtype=complex)
    state[flat_index(n, s2, s1, params)] = 1.0
    return state


def _check_input_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    alpha = complex(alpha)
    beta = complex(beta)
    norm2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError(
            f"|alpha|^2 + |beta|^2 = {norm2!r} is not 1 within 1e-10"
        )
    return alpha, beta


def superposition_initial(
    alpha: complex, beta: complex, params: ModelParams
) -> np.ndarray:
    """State to be transferred, |0>|g2>(alpha |g1> + beta |e1>)."""
    alpha, beta = _check_input_pair(alpha, beta)
    state = np.zeros(params.dim, dtype=complex)
    state[flat_index(0, 0, 0, params)] = alpha
    state[flat_index(0, 0, 1, params)] = beta
    return state


def superposition_target(
    alpha: complex, beta: complex, params: ModelParams
) -> np.ndarray:
    """Transfer target, |0>(alpha |g2> + beta |e2>)|g1>."""
    alpha, beta = _check_input_pair(alpha, beta)
    state = np.zeros(params.dim, dtype=complex)
    state[flat_index(0, 0, 0, params)] = alpha
    state[flat_index(0, 1, 0, params)] = beta
    return state


def annihilation(params: ModelParams) -> np.ndarray:
    """Cavity annihilation operator a, truncated at n_max."""
    ladder = np.diag(np.sqrt(np.arange(1, params.n_max + 1)), k=1).astype(complex)
    return np.kron(ladder, np.eye(4, dtype=complex))


def creation(params: ModelParams) -> np.ndarray:
    """Cavity creation operator a^dag."""
    return annihilation(params).conj().T


def number_operator(params: ModelParams) -> np.ndarray:
    """Photon number operator a^dag a (diagonal)."""
    n_values = np.repeat(np.arange(params.n_max + 1), 4)
    return np.diag(n_values).astype(complex)


def qubit_lowering(i: int, params: ModelParams) -> np.ndarray:
    """Lowering operator sigma_-^i = |g_i><e_i| on the full space."""
    n_dim = params.n_max + 1
    if i == 1:
        single = np.kron(_IDENTITY2, _SIGMA_MINUS)
    elif i == 2:
        single = np.kron(_SIGMA_MINUS, _IDENTITY2)
    else:
        raise ValueError(f"qubit id must be 1 or 2, got {i}")
    return np.kron(np.eye(n_dim, dtype=complex), single)


def qubit_raising(i: int, params: ModelParams) -> np.ndarray:
    """Raising operator sigma_+^i = |e_i><g_i|."""
    return qubit_lowering(i, params).conj().T


def drift_hamiltonian(params: ModelParams) -> np.ndarray:
    """Uncoupled part omega_c a^dag a + sum_i eps_i sigma_+^i sigma_-^i."""
    diag = np.zeros(params.dim)
    for flat in range(params.dim):
        n, rest = divmod(flat, 4)
        s2, s1 = divmod(rest, 2)
        diag[flat] = params.omega_c * n + params.eps1 * s1 + params.eps2 * s2
    return np.diag(diag).astype(complex)


def coupling_operator(i: int, params: ModelParams, rwa: bool = False) -> np.ndarray:
    """Unit-strength coupling of qubit ``i`` to the cavity.

    Full form (a + a^dag)(sigma_- + sigma_+); with ``rwa=True`` only the
    excitation-conserving part a sigma_+ + a^dag sigma_-.
    """
    a = annihilation(params)
    sm = qubit_lowering(i, params)
    sp = sm.conj().T
    if rwa:
        return a @ sp + a.conj().T @ sm
    return (a + a.conj().T) @ (sm + sp)


def excitation_operator(params: ModelParams) -> np.ndarray:
    """Total excitation number a^dag a + sum_i sigma_+^i sigma_-^i (diagonal)."""
    diag = np.zeros(params.dim)
    for flat in range(params.dim):
        n, rest = divmod(flat, 4)
        s2, s1 = divmod(rest, 2)
        diag[flat] = n + s1 + s2
    return np.diag(diag).astype(complex)


def parity_operator(params: ModelParams) -> np.ndarray:
    """Excitation parity (-1)^N, conserved by the full Rabi Hamiltonian."""
    n_exc = np.real(np.diag(excitation_operator(params)))
    return np.diag((-1.0) ** n_exc).astype(complex)
