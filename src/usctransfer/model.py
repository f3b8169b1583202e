"""Hilbert space, operators and Hamiltonians of the two-qubit / one-cavity system.

Two two-level systems (splittings ``eps1``, ``eps2``) couple to a single
cavity mode of frequency omega_c through their ``sigma_x``-like dipole
operators.  The full Rabi Hamiltonian keeps the counter-rotating terms that
matter once the couplings reach a sizeable fraction of omega_c; the RWA
variant drops them and then conserves the total excitation number exactly.
Cavity photon loss at rate ``kappa`` enters as the anti-Hermitian term
``-(i/2) kappa a^dag a`` of the non-Hermitian generator that
:func:`generators` assembles from these operators, so the squared norm
of a propagated state decays by exactly the leaked population.

:func:`conserved_blocks` turns the conservation laws into index sets, once,
for every caller: the two parity sectors under the Rabi model and the
excitation-number sectors under RWA, the smallest blocks on which each
model's generator is block diagonal.  The stepper, the photon peak and the
gradient engine all work on their stack, :func:`block_generators`.

The oscillator ladder is truncated at ``n_max`` photons and the basis is the
factorized set ``|n, s2, s1>`` (s = 0 ground, 1 excited) with the first qubit varying fastest, i.e.
flat index ``n*4 + s2*2 + s1``; :func:`basis_labels` tabulates the labels
once per ``ModelParams``.  All operators are dense complex matrices; the
spaces of interest stay small (dim = 4*(n_max+1)).

omega_c is the unit, not a parameter: ``eps1``, ``eps2``, ``kappa`` and
every coupling (g0, g1, g2) are in units of omega_c, and every time and
step ``dt`` is in units of 1/omega_c.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "basis_labels",
    "flat_index",
    "basis_state",
    "superposition_initial",
    "superposition_target",
    "annihilation",
    "number_operator",
    "qubit_lowering",
    "drift_hamiltonian",
    "coupling_operator",
    "excitation_operator",
    "parity_operator",
    "conserved_blocks",
    "occupied_blocks",
    "generators",
    "block_generators",
]

# the largest Fock cutoff: every generator is a dense 4 (n_max + 1)-dim complex
# matrix, and building them for both models at 200 raises the peak RSS by about
# 130 MB (35 MB at 100), growing as n_max^2: 5000 would ask for about 6.4 GB a matrix
_N_MAX_LIMIT = 200
_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_IDENTITY2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the tripartite system.

    ``eps1``/``eps2`` are the qubit splittings and ``kappa`` the cavity
    decay rate, in units of the cavity frequency omega_c, and ``n_max`` is
    the Fock cutoff (photons 0..n_max).  The resonant case
    ``eps1 = eps2 = 1`` is the default.
    """

    eps1: float = 1.0
    eps2: float = 1.0
    kappa: float = 0.005
    n_max: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and non-negative, got {self.kappa}")
        if not 1 <= self.n_max <= _N_MAX_LIMIT:
            raise ValueError(f"n_max must be between 1 and {_N_MAX_LIMIT}, got {self.n_max}")
        # kappa n_max (n_max + 1) / 2 is the largest block trace of the loss term -(i/2) kappa a^dag a, and the
        # generators overflow past it; float() keeps a numpy scalar from warning on that overflow
        if not float(self.kappa) * (self.n_max * (self.n_max + 1) / 2) < np.inf:
            raise ValueError(f"kappa must keep kappa n_max (n_max + 1) / 2 finite, got {self.kappa} "
                             f"at n_max {self.n_max}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated Hilbert space, 4*(n_max+1)."""
        return 4 * (self.n_max + 1)


@functools.lru_cache(maxsize=32)
def basis_labels(params: ModelParams) -> np.ndarray:
    """Read-only (3, dim) integer table of the labels n, s2 and s1 of every flat index.

    Column ``n*4 + s2*2 + s1`` holds (n, s2, s1), so
    ``n, s2, s1 = basis_labels(params)`` gives each label per basis state.
    """
    labels = np.indices((params.n_max + 1, 2, 2)).reshape(3, params.dim)
    labels.flags.writeable = False
    return labels


def flat_index(n: int, s2: int, s1: int, params: ModelParams) -> int:
    """Flat position of |n, s2, s1> in the amplitude vector (s1 fastest)."""
    if not 0 <= n <= params.n_max:
        raise ValueError(f"photon number {n} outside 0..{params.n_max}")
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError(f"qubit levels must be 0 or 1, got s2={s2}, s1={s1}")
    return n * 4 + s2 * 2 + s1


def basis_state(n: int, s2: int, s1: int, params: ModelParams) -> np.ndarray:
    """Unit amplitude vector for the basis ket |n, s2, s1>."""
    state = np.zeros(params.dim, dtype=complex)
    state[flat_index(n, s2, s1, params)] = 1.0
    return state


def _check_input_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    alpha = complex(alpha)
    beta = complex(beta)
    norm2 = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)  # a product overflows to inf where ** would raise
    if not abs(norm2 - 1.0) <= 1e-10:  # also rejects a non-finite alpha or beta
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


def number_operator(params: ModelParams) -> np.ndarray:
    """Photon number operator a^dag a (diagonal)."""
    return np.diag(basis_labels(params)[0]).astype(complex)


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


def drift_hamiltonian(params: ModelParams) -> np.ndarray:
    """Uncoupled part a^dag a + sum_i eps_i sigma_+^i sigma_-^i (omega_c = 1)."""
    n, s2, s1 = basis_labels(params)
    return np.diag(n + params.eps1 * s1 + params.eps2 * s2).astype(complex)


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
    n, s2, s1 = basis_labels(params)
    return np.diag(n + s1 + s2).astype(complex)


def parity_operator(params: ModelParams) -> np.ndarray:
    """Excitation parity (-1)^N, conserved by the full Rabi Hamiltonian."""
    return np.diag((-1.0) ** basis_labels(params).sum(axis=0)).astype(complex)


@functools.lru_cache(maxsize=32)
def conserved_blocks(params: ModelParams, rwa: bool) -> tuple[np.ndarray, ...]:
    """Flat indices of the smallest sectors that the model's generator never couples.

    The full Rabi model and its cavity loss conserve only the excitation
    parity: the blocks are the even and the odd sector, in that order, each
    of dimension 2*(n_max+1).  The RWA generator, loss included, conserves
    the excitation number N = a^dag a + sigma_+^1 sigma_-^1 +
    sigma_+^2 sigma_-^2 itself: block N holds the states with N excitations,
    for N = 0..n_max+2, of sizes 1, 3, 4, ..., 4, 3, 1.  Every block lists
    its indices in ascending order and is read-only; the arrays are built
    once per ``(params, rwa)``.
    """
    excitations = basis_labels(params).sum(axis=0)
    sector = excitations if rwa else excitations % 2
    blocks = tuple(np.flatnonzero(sector == q) for q in range(int(sector.max()) + 1))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def occupied_blocks(params: ModelParams, rwa: bool, *states: np.ndarray) -> tuple[int, ...]:
    """Numbers of the :func:`conserved_blocks` on which each of ``states`` has a nonzero amplitude.

    For one state, the blocks that its evolution never leaves; for an initial
    and a target state, the only blocks on which their overlap can build up.
    """
    return tuple(b for b, idx in enumerate(conserved_blocks(params, rwa)) if all(s[idx].any() for s in states))


@functools.lru_cache(maxsize=32)
def generators(params: ModelParams, rwa: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift generator K0 = H0 - (i/2) kappa a^dag a and the unit controls V1, V2.

    The generator at couplings (g1, g2) is ``k0 + g1 * v1 + g2 * v2``; with
    ``rwa=True`` the controls keep only their excitation-conserving part.
    The matrices are built once per ``(params, rwa)`` and shared by every
    caller, so they are returned read-only.
    """
    k0 = drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params)
    v1 = coupling_operator(1, params, rwa=rwa)
    v2 = coupling_operator(2, params, rwa=rwa)
    for op in (k0, v1, v2):
        op.flags.writeable = False
    return k0, v1, v2


@functools.lru_cache(maxsize=32)
def block_generators(params: ModelParams, rwa: bool, numbers: tuple[int, ...]) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Indices, trace shifts and stacked generator parts of the blocks ``numbers`` of :func:`conserved_blocks`.

    Returns ``(blocks, mu, ops)``: each block's flat indices, its trace shift
    mu_b = tr(K0_b)/d_b over its true size d_b, and the (3, blocks, d, d)
    stack of K0_b - mu_b, V1_b and V2_b, zero-padded to the largest size d.
    Amplitudes outside the blocks a caller's states occupy, and padded ones
    (padded rows and columns are all zero), stay exactly 0.  The shift lowers
    the norm bound and the Taylor degree of the block exponentials; a step
    of length h restores it as the phase exp(-i h mu_b).  Cached, read-only.
    """
    blocks = tuple(conserved_blocks(params, rwa)[b] for b in numbers)
    d = max((idx.size for idx in blocks), default=0)
    mu, ops = np.empty(len(blocks), dtype=complex), np.zeros((3, len(blocks), d, d), dtype=complex)
    for b, idx in enumerate(blocks):
        k0, v1, v2 = (op[np.ix_(idx, idx)] for op in generators(params, rwa))
        mu[b] = np.trace(k0) / idx.size
        ops[:, b, : idx.size, : idx.size] = k0 - mu[b] * np.eye(idx.size), v1, v2
    mu.flags.writeable = ops.flags.writeable = False
    return blocks, mu, ops
