"""Fast enumeration of Pauli-string matrix elements of n-qubit pure states.

A phase-free Pauli string is encoded by bit masks (z, x): site j carries
I, X, Z, Y for (z_j, x_j) = (0,0), (0,1), (1,0), (1,1). As a matrix,
P(z, x) = i^{|z & x|} X^x Z^z, whose action on a basis state |b> is
(-1)^{|z & b|} |b ^ x| up to that global i power. Sweeping z at fixed x is a
Walsh-Hadamard transform, so all 4^n values cost O(4^n n) total.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest qubit count for which the 4^n-string tables are enumerated.
PAULI_ENUM_MAX_QUBITS = 7


@lru_cache(maxsize=None)
def _walsh_hadamard(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        h = np.kron(h, block)
    return h


@lru_cache(maxsize=None)
def _i_power_table(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint64)
    ny = np.bitwise_count(idx[:, None] & idx[None, :])
    return 1j ** (ny % 4)


def _value_table(psi: np.ndarray, conjugate_bra: bool) -> np.ndarray:
    """values[z, x] = <psi|P(z,x)|psi> if conjugate_bra else <psi*|P(z,x)|psi>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = psi.size
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"state dimension {dim} is not a power of two")
    h = _walsh_hadamard(n)
    idx = np.arange(dim)
    out = np.empty((dim, dim), dtype=complex)
    for x in range(dim):
        bra = psi[idx ^ x]
        if conjugate_bra:
            bra = bra.conj()
        out[:, x] = h @ (bra * psi)
    return out * _i_power_table(n)


def pauli_expectations(psi: np.ndarray) -> np.ndarray:
    """<psi|P|psi> for every phase-free Pauli string, indexed [z, x]."""
    return _value_table(psi, conjugate_bra=True)


def pauli_conjugation_overlaps(psi: np.ndarray) -> np.ndarray:
    """<psi*|P|psi> for every phase-free Pauli string, indexed [z, x]."""
    return _value_table(psi, conjugate_bra=False)


def pauli_matrix(z: int, x: int, n: int) -> np.ndarray:
    """Dense 2^n matrix of the phase-free string encoded by bit masks (z, x)."""
    dim = 1 << n
    b = np.arange(dim)
    rows = b ^ x
    signs = (-1.0) ** np.bitwise_count(np.uint64(z) & b.astype(np.uint64)).astype(int)
    phase = 1j ** (int(np.bitwise_count(np.uint64(z & x))) % 4)
    m = np.zeros((dim, dim), dtype=complex)
    m[rows, b] = phase * signs
    return m


def single_qubit_factors(z: int, x: int, n: int) -> list[np.ndarray]:
    """The string as a list of per-qubit 2x2 matrices (qubit 0 first)."""
    paulis = {
        (0, 0): np.eye(2, dtype=complex),
        (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
        (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    }
    out = []
    for j in range(n):
        shift = n - 1 - j  # qubit 0 is the most significant bit
        out.append(paulis[((z >> shift) & 1, (x >> shift) & 1)])
    return out
