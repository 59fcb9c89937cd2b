"""Reference values for the benchmark's output checks, in plain numpy.

Nothing here calls chiralkit: every value is rebuilt from the state matrix
or state vector with this module's own eigendecompositions, partial traces,
partial transposes and Kronecker products, so a fault in the library cannot
hide in its own reference.

Conventions (the library's, restated): bipartite states are (dA*dB)^2
matrices with subsystem A first; qubit 0 is the most significant bit of a
basis index; a phase-free Pauli string is a pair of bit masks (z, x) whose
site j carries I, X, Z, Y for (z_j, x_j) = (0,0), (0,1), (1,0), (1,1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative eigenvalue cutoff of the support, as documented by the library.
SUPPORT_CUTOFF = 1e-12

_SITE = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _eigh(m: np.ndarray):
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def marginal(rho: np.ndarray, dims: tuple[int, int], party: int) -> np.ndarray:
    """Reduced state of party 0 (A) or 1 (B) of a bipartite matrix."""
    da, db = dims
    t = rho.reshape(da, db, da, db)
    return np.einsum("ajbj->ab", t) if party == 0 else np.einsum("iaib->ab", t)


def log_on_support(m: np.ndarray) -> np.ndarray:
    """log(m) on the support of m; the kernel contributes nothing."""
    p, v = _eigh(m)
    keep = p > SUPPORT_CUTOFF * max(p[-1], 0.0)
    logp = np.where(keep, np.log(np.where(keep, p, 1.0)), 0.0)
    return (v * logp) @ v.conj().T


@dataclass(frozen=True)
class SpectralForm:
    """A bipartite state in its own eigenbasis: eigenvalues p, modular
    energies kappa = -log p on the support, and the embedded marginal modular
    Hamiltonians K_A (x) I and I (x) K_B rotated into that basis."""

    p: np.ndarray
    kappa: np.ndarray
    ka: np.ndarray
    kb: np.ndarray
    moment_a: float
    moment_b: float


def spectral_form(rho: np.ndarray, dims: tuple[int, int]) -> SpectralForm:
    da, db = dims
    p, v = _eigh(rho)
    p = np.clip(p, 0.0, None)
    keep = p > SUPPORT_CUTOFF * p[-1]
    kappa = np.where(keep, -np.log(np.where(keep, p, 1.0)), 0.0)
    moments = []
    rotated = []
    for party, embed in ((0, lambda k: np.kron(k, np.eye(db))), (1, lambda k: np.kron(np.eye(da), k))):
        marg = marginal(rho, dims, party)
        k = -log_on_support(marg)
        moments.append(float(np.real(np.trace(marg @ k @ k))))
        rotated.append(v.conj().T @ embed(k) @ v)
    return SpectralForm(p, kappa, rotated[0], rotated[1], moments[0], moments[1])


def _contract(sf: SpectralForm, w: np.ndarray) -> float:
    """Re(i sum_ij w_ij (K_A)_ij (K_B)_ji) in the eigenbasis."""
    return float(np.real(1j * np.sum(w * sf.ka * sf.kb.T)))


def j2(sf: SpectralForm) -> float:
    """i Tr(rho {[K_AB, K_A], K_B}) with kernel (kappa_i - kappa_j)(p_i + p_j)."""
    dk = sf.kappa[:, None] - sf.kappa[None, :]
    return _contract(sf, dk * (sf.p[:, None] + sf.p[None, :]))


def j3(sf: SpectralForm) -> float:
    """i Tr(rho [[K_AB, [K_AB, K_A]], K_B]) with kernel (kappa_i - kappa_j)^2 (p_i - p_j)."""
    dk = sf.kappa[:, None] - sf.kappa[None, :]
    return _contract(sf, dk**2 * (sf.p[:, None] - sf.p[None, :]))


def gamma_s(sf: SpectralForm, s: float) -> float:
    """Even-flow measure with kernel cos(s (kappa_i - kappa_j)) (p_i - p_j)."""
    dk = sf.kappa[:, None] - sf.kappa[None, :]
    return _contract(sf, np.cos(s * dk) * (sf.p[:, None] - sf.p[None, :]))


def phi_s(sf: SpectralForm, s: float) -> float:
    """Odd-flow measure with kernel -sin(s (kappa_i - kappa_j)) (p_i + p_j)."""
    dk = sf.kappa[:, None] - sf.kappa[None, :]
    return _contract(sf, -np.sin(s * dk) * (sf.p[:, None] + sf.p[None, :]))


def gamma(sf: SpectralForm) -> float:
    """Flow integral of gamma_s against sech(pi s), in closed form: the
    sech transform of cos(s delta) is sech(delta / 2), which gives the kernel
    2 sqrt(p_i p_j) (p_i - p_j) / (p_i + p_j). Full-rank states only."""
    p = sf.p
    if p[0] <= SUPPORT_CUTOFF * p[-1]:
        raise ValueError("the flow integral needs a full-rank state")
    w = 2.0 * np.sqrt(np.outer(p, p)) * (p[:, None] - p[None, :]) / (p[:, None] + p[None, :])
    return _contract(sf, w)


def intrinsic_ip(sf: SpectralForm, party: int) -> float:
    """sum_ij 2 (p_i - p_j)^2 / (p_i + p_j) |(K_P)_ij|^2 over p_i + p_j > 1e-12."""
    p = sf.p
    k = sf.ka if party == 0 else sf.kb
    psum = p[:, None] + p[None, :]
    good = psum > 1e-12
    w = np.where(good, 2.0 * (p[:, None] - p[None, :]) ** 2 / np.where(good, psum, 1.0), 0.0)
    return float(np.sum(w * np.abs(k) ** 2))


def log_moment_cap(d: int) -> float:
    """Largest Tr(rho (log rho)^2) on d levels: 0.563 for a qubit, (log d)^2 above."""
    return 0.563 if d == 2 else float(np.log(d) ** 2)


def log_negativity(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """log of the trace norm of the partial transpose on B."""
    da, db = dims
    pt = rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return float(np.log(np.sum(np.abs(np.linalg.eigvalsh(pt)))))


# ---------------------------------------------------------------------------
# Orbit fidelity
# ---------------------------------------------------------------------------


def purification_matrix(rho: np.ndarray) -> np.ndarray:
    """(system x ancilla) matrix Psi with Psi Psi^dagger = rho, ancilla of
    dimension rank(rho): columns sqrt(p_i) |phi_i> over the support."""
    p, v = _eigh(rho)
    p = np.clip(p, 0.0, None)
    keep = p > SUPPORT_CUTOFF * p[-1]
    return v[:, keep] * np.sqrt(p[keep])


def orbit_fidelity(rho: np.ndarray, system_unitaries) -> float:
    """Best fidelity between the conjugate purification and the purification
    moved by the given local unitaries (one per subsystem, in order), with
    the ancilla unitary chosen optimally in closed form.

    The overlap is the bilinear form Tr(Psi^T U Psi W^T); its largest modulus
    over ancilla unitaries W is the trace norm of Psi^T U Psi. The value does
    not depend on the phases of the eigenvectors that build Psi.
    """
    psi = purification_matrix(rho)
    u = np.eye(1, dtype=complex)
    for factor in system_unitaries:
        u = np.kron(u, factor)
    x = psi.T @ u @ psi
    return float(np.sum(np.linalg.svd(x, compute_uv=False)) ** 2)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


# ---------------------------------------------------------------------------
# Pauli strings and stabilizer states
# ---------------------------------------------------------------------------


def pauli_from_bits(z_bits, x_bits) -> np.ndarray:
    """Kronecker product of per-qubit 2x2 factors, qubit 0 first."""
    m = np.eye(1, dtype=complex)
    for zb, xb in zip(z_bits, x_bits):
        m = np.kron(m, _SITE[(int(zb), int(xb))])
    return m


def pauli_from_masks(z: int, x: int, n: int) -> np.ndarray:
    """The string encoded by bit masks with qubit 0 as the most significant bit."""
    return pauli_from_bits(
        [(z >> (n - 1 - j)) & 1 for j in range(n)],
        [(x >> (n - 1 - j)) & 1 for j in range(n)],
    )


def conjugation_overlap(psi: np.ndarray, z: int, x: int, n: int) -> complex:
    """<psi*|P|psi> = sum_ab psi_a P_ab psi_b."""
    return complex(psi @ (pauli_from_masks(z, x, n) @ psi))


def expectation(psi: np.ndarray, z: int, x: int, n: int) -> complex:
    """<psi|P|psi>."""
    return complex(psi.conj() @ (pauli_from_masks(z, x, n) @ psi))


def pauli_log_distance(psi: np.ndarray, n: int) -> float:
    """-log max_P |<psi*|P|psi>|^2 by brute force over all 4^n strings."""
    best = max(
        abs(conjugation_overlap(psi, z, x, n)) ** 2
        for z, x in itertools.product(range(1 << n), repeat=2)
    )
    return -float(np.log(best))


def nullity(psi: np.ndarray, n: int, tol: float = 1e-8) -> int:
    """n - log2 #{P : |<psi|P|psi>| > 1 - tol}, by brute force over 4^n strings."""
    count = sum(
        abs(expectation(psi, z, x, n)) > 1.0 - tol
        for z, x in itertools.product(range(1 << n), repeat=2)
    )
    k = count.bit_length() - 1
    if count != 1 << k:
        raise ValueError(f"{count} definite strings is not a power of two")
    return n - k


@lru_cache(maxsize=None)
def _product_stabilizer_states(n: int) -> np.ndarray:
    """The 6^n tensor products of single-qubit Pauli eigenstates, one per row."""
    s = 1.0 / np.sqrt(2.0)
    single = np.array(
        [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]], dtype=complex
    )
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.einsum("ai,bj->abij", out, single).reshape(out.shape[0] * 6, -1)
    return out


def product_stabilizer_fidelity(psi: np.ndarray, n: int) -> float:
    """Largest |<s|psi>|^2 over product stabilizer states: a lower bound on
    the stabilizer fidelity, exact for one qubit."""
    return float(np.max(np.abs(_product_stabilizer_states(n).conj() @ psi) ** 2))
