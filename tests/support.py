"""Test-only reference operators and states.

The dense oracles the library's fast paths are checked against: the
operator tensored with the identity (for apply_local), the imaginary power
rho^{is} and the modular-flowed Hamiltonians built from it (for the flow
kernels of gamma_s and phi_s), the orbit overlap recomputed from the
purification (for the optimizer's overlap), and the rank of a state (for
the ancilla dimension of purify). Plus two textbook states.
"""

import numpy as np

from chiralkit import chirality as ch
from chiralkit.qmat import SUPPORT_CUTOFF, dagger, matrix_log_on_support, partial_trace, pure_state_density


def bell_state():
    """Two-qubit |00>+|11> projector."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return pure_state_density((2, 2), v)


def ghz_vector(n=3):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def rank(rho):
    """Number of eigenvalues above SUPPORT_CUTOFF times the largest: an int,
    or an array of them for a stack."""
    p = rho.eigenvalues()
    r = np.sum(p > SUPPORT_CUTOFF * np.maximum(p[..., -1:], 0.0), axis=-1)
    return int(r) if r.ndim == 0 else r


def embed_operator(op, dims, subsystems):
    """op on the listed subsystems (in that order) tensored with the identity
    on the rest, as a dense matrix; a (..., d_sub, d_sub) stack embeds member
    by member. The dense form of apply_local."""
    dims = tuple(int(d) for d in dims)
    subsystems = [int(i) for i in subsystems]
    n, k = len(dims), len(subsystems)
    sub_dims = tuple(dims[i] for i in subsystems)
    op = np.asarray(op, dtype=complex)
    batch = op.shape[:-2]
    # einsum indices: 0..k-1 the operator's rows, k..2k-1 its columns, then
    # one row and one column index per identity factor
    out_row, out_col = [0] * n, [0] * n
    for pos, i in enumerate(subsystems):
        out_row[i], out_col[i] = pos, k + pos
    operands = [op.reshape(batch + sub_dims + sub_dims), [Ellipsis] + list(range(2 * k))]
    next_idx = 2 * k
    for i in [i for i in range(n) if i not in subsystems]:
        operands += [np.eye(dims[i]), [next_idx, next_idx + 1]]
        out_row[i], out_col[i] = next_idx, next_idx + 1
        next_idx += 2
    d = int(np.prod(dims))
    return np.einsum(*operands, [Ellipsis] + out_row + out_col).reshape(batch + (d, d))


def imaginary_power(rho, s):
    """rho^{is}, acting as the identity on the kernel so the result is
    unitary; one unitary per member of a stack."""
    dec = rho.eig()
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = p > SUPPORT_CUTOFF * p[..., -1:]
    phases = np.where(keep, np.exp(1j * s * np.log(np.where(keep, p, 1.0))), 1.0)
    v = dec.eigenvectors
    return (v * phases[..., None, :]) @ dagger(v)


def modular_hamiltonians(rho, split):
    """(K_AB, K_A (x) I, I (x) K_B) built densely, independent of modular_set."""
    ks = [-matrix_log_on_support(rho)]
    for group in split.groups:
        ks.append(embed_operator(-matrix_log_on_support(partial_trace(rho, group)), rho.dims, group))
    return tuple(ks)


def flowed_k(rho, split, party, s):
    """(K_plus, K_minus) of party P under the modular flow, built densely:
    K_P(s) = u K_P u† with u = exp(i s K_AB) = rho^{-is}, K_plus =
    (K_P(s) + K_P(-s))/2 and K_minus = i (K_P(s) - K_P(-s))/2. K_plus is
    Hermitian, K_minus anti-Hermitian, and Tr(rho K_minus) vanishes."""
    k = modular_hamiltonians(rho, split)[1 + "AB".index(party)]
    u = imaginary_power(rho, -s)
    forward, backward = u @ k @ dagger(u), dagger(u) @ k @ u
    return 0.5 * (forward + backward), 0.5j * (forward - backward)


def orbit_overlap(rho, partition, unitaries):
    """<conj purification| ((x)U) |purification> for given unitaries (one per
    partition group, then the ancilla): the optimizer's overlap, recomputed."""
    base, _ = ch._fused_purification(rho, partition)
    theta = base
    for t, u in enumerate(unitaries):
        theta = np.moveaxis(np.moveaxis(theta, t, -1) @ np.asarray(u, dtype=complex).T, -1, t)
    return complex(np.sum(base * theta))
