"""Reference states of the acceptance criteria: the chiral block states and
their purification, and the single-qubit magic state."""

from __future__ import annotations

import numpy as np

from .qmat import DensityMatrix

# Qubit states whose pairwise overlaps carry an incompatible phase pattern:
# <b0|b1> and <b0|b2> are real while <b1|b2> is not, which obstructs any
# local-unitary map onto the conjugated triple.
_B0 = np.array([1.0, 0.0], dtype=complex)
_B1 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_B2 = np.array([1.0, np.sqrt(3.0) * 1j], dtype=complex) / 2.0

CHIRAL_TRIPLE = (_B0, _B1, _B2)


def t_state_vector() -> np.ndarray:
    """(|0> + e^{i pi/4} |1>)/sqrt(2), the canonical single-qubit magic state."""
    return np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2.0)


def _check_probs(p, n: int, min_gap: float = 1e-9):
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"expected {n} probabilities, got shape {p.shape}")
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must be positive and sum to 1, got {p}")
    gaps = np.abs(np.subtract.outer(p, p))[np.triu_indices(n, 1)]
    if gaps.min() < min_gap:
        raise ValueError(f"probabilities must be nondegenerate, got {p}")
    return p


def chiral_qutrit_qubit(p=(0.5, 0.3, 0.2)) -> DensityMatrix:
    """Separable qutrit-qubit state, block diagonal in the qutrit basis, that
    is nevertheless bipartite chiral. Requires nondegenerate positive p."""
    p = _check_probs(p, 3)
    rho = np.zeros((6, 6), dtype=complex)
    for i, (pi, b) in enumerate(zip(p, CHIRAL_TRIPLE)):
        proj = np.outer(b, b.conj())
        rho[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = pi * proj
    return DensityMatrix((3, 2), rho)


def purified_chiral_qutrit_qubit(p=(0.5, 0.3, 0.2)) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical purification of chiral_qutrit_qubit by a second qutrit:
    sum_i sqrt(p_i) |i>|i>|b_i>. Returns (vector, dims) with dims (3, 3, 2)."""
    p = _check_probs(p, 3)
    v = np.zeros((3, 3, 2), dtype=complex)
    for i, (pi, b) in enumerate(zip(p, CHIRAL_TRIPLE)):
        v[i, i, :] = np.sqrt(pi) * b
    return v.reshape(-1), (3, 3, 2)


def commuting_chiral_qudit_qubit(p=(0.05, 0.06, 0.07, 0.82)) -> DensityMatrix:
    """Chiral 4-level x qubit state that commutes with both of its marginals.

    The fourth block is chosen so the qubit marginal is exactly I/2, which
    makes every nested-commutator functional vanish while the state stays
    chiral. Feasible only when the first three weights are small enough for
    the completing block to remain positive."""
    p = _check_probs(p, 4)
    partial = sum(pi * np.outer(b, b.conj()) for pi, b in zip(p[:3], CHIRAL_TRIPLE))
    block4 = (np.eye(2, dtype=complex) / 2.0 - partial) / p[3]
    evals = np.linalg.eigvalsh(0.5 * (block4 + block4.conj().T))
    if evals[0] < 1e-12:
        raise ValueError(f"no positive completing block for p={tuple(p)} (min eig {evals[0]:.3e})")
    rho = np.zeros((8, 8), dtype=complex)
    for i, (pi, b) in enumerate(zip(p[:3], CHIRAL_TRIPLE)):
        rho[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = pi * np.outer(b, b.conj())
    rho[6:8, 6:8] = p[3] * block4
    return DensityMatrix((4, 2), rho)
