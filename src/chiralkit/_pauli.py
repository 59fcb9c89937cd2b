"""Pauli-string matrix elements of n-qubit pure states, all 4^n at once.

A phase-free Pauli string is encoded by bit masks (z, x): site j carries
I, X, Z, Y for (z_j, x_j) = (0,0), (0,1), (1,0), (1,1). As a matrix,
P(z, x) = i^{|z & x|} X^x Z^z, whose action on a basis state |b> is
(-1)^{|z & b|} |b ^ x| up to that global i power. So the table of
<bra|P(z, x)|psi> over z and x is the Walsh-Hadamard matrix applied to
bra[b ^ x] psi[b]: one gather and one BLAS GEMM, O(8^n) flops and O(4^n)
memory. The library reads only moduli of it, so its one table
(unphased_table) leaves out the i power, a unit factor, and the nullity
takes only the columns a bound keeps. This module alone holds the
qubit-count rules: the state dimension is 2^n and the tables stop at
PAULI_ENUM_MAX_QUBITS.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Largest qubit count for which the 4^n-string tables are enumerated.
PAULI_ENUM_MAX_QUBITS = 10
# qubit_vector accepts a state whose squared norm is within this of 1
NORM_ATOL = 1e-10


@lru_cache(maxsize=None)
def _walsh_hadamard(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        h = np.kron(h, block)
    return h


@lru_cache(maxsize=None)
def _xor_index(n: int) -> np.ndarray:
    """The (2^n, 2^n) table b ^ x as int16, which holds it up to 15 qubits:
    2 MB at n = 10. Read it with take: fancy indexing would first widen a
    narrow index to intp on every call. Cached, read-only."""
    idx = np.arange(1 << n, dtype=np.int16)
    index = idx[:, None] ^ idx
    index.flags.writeable = False
    return index


def qubit_vector(psi: np.ndarray, n: int) -> np.ndarray:
    """psi as a flat complex vector, checked to be a state of n qubits: 2^n
    finite entries whose squared norm is within NORM_ATOL of 1."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != 1 << n:
        raise ValueError(f"state dimension {psi.size} is not 2^{n}; qudits are not supported")
    norm2 = np.vdot(psi, psi).real
    if not abs(norm2 - 1.0) <= NORM_ATOL:  # a non-finite entry makes norm2 NaN or inf
        raise ValueError(
            f"state has squared norm {float(norm2)!r}; a state of {n} qubits has finite "
            f"entries and squared norm 1 within {NORM_ATOL:g}"
        )
    return psi


def unphased_table(psi: np.ndarray, n: int, conjugate_bra: bool, floor: float | None = None) -> np.ndarray:
    """values[z, x] / i^{|z & x|}, where values[z, x] = <psi|P(z,x)|psi> if
    conjugate_bra else <psi*|P(z,x)|psi>: on every column x, or, given a
    floor, on the columns that can hold a modulus above it, in order. A
    factor of +-1 or +-i is exact in IEEE arithmetic, so the moduli are those
    of the phased table, bit for bit, and readers of |values| skip the phase.

    The floor's columns: with w = |psi| and t its largest entry, every entry
    of column x is at most c_x = sum_b w_b w_{b ^ x} = |psi|^2 -
    sum_b (w_b - w_{b ^ x})^2 / 2, and the terms b = t and b = t ^ x of
    that sum are equal, so c_x <= 1 + NORM_ATOL - (w_t - w_{t ^ x})^2: one
    row of the XOR index. A column is left out when that bound, widened by
    1 + 1e-12 past the rounding of a 2^n-term sum, is at most floor; x = 0
    never is (DECISIONS.md)."""
    psi = qubit_vector(psi, n)
    if n > PAULI_ENUM_MAX_QUBITS:
        raise ValueError(f"enumeration of 4^{n} strings refused (max {PAULI_ENUM_MAX_QUBITS} qubits)")
    index = _xor_index(n)
    if floor is not None:
        weights = np.abs(psi)
        top = int(weights.argmax())
        gap = math.sqrt(1.0 + NORM_ATOL - floor / (1 + 1e-12))  # about 1.0e-4 for the nullity
        columns = (weights.take(index[top]) > weights[top] - gap).nonzero()[0]
        if len(columns) < len(weights):
            index = index.take(columns, axis=1)
    # bra[b, x] = psi[b ^ x], conjugated before the gather: 2^n entries, not 4^n
    bra = (psi.conj() if conjugate_bra else psi).take(index)
    bra *= psi[:, None]
    # the real Hadamard matrix acts on rows, so one real GEMM covers both
    # the real and the imaginary parts of the interleaved complex columns
    return (_walsh_hadamard(n) @ bra.view(np.float64)).view(complex)


def column_phases(z: int, x: int, n: int) -> np.ndarray:
    """c with P(z, x)|b> = c_b |b ^ x> for every basis index b: the one
    nonzero entry of each column of the string's matrix."""
    b = np.arange(1 << n, dtype=np.uint64)
    signs = (-1.0) ** np.bitwise_count(np.uint64(z) & b).astype(int)
    return 1j ** (int(np.bitwise_count(np.uint64(z & x))) % 4) * signs


def pauli_matrix(z: int, x: int, n: int) -> np.ndarray:
    """Dense 2^n matrix of the phase-free string encoded by bit masks (z, x)."""
    dim = 1 << n
    b = np.arange(dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[b ^ x, b] = column_phases(z, x, n)
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
