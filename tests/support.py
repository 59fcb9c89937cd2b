"""Test-only reference operators and states.

The dense oracles the library's fast paths are checked against: the
operator tensored with the identity (for apply_local), the imaginary power
rho^{is} and the modular-flowed Hamiltonians built from it (for the flow
kernels of gamma_s and phi_s), the orbit overlap recomputed from the
purification (for the optimizer's overlap), and the rank of a state (for
the ancilla dimension of purify), and J2, J3 and J3' from their
commutator definitions at 50 digits (for the eigenbasis forms of the
measures), the stabilizer fidelity with every support in its GEMM (for
the bound-pruned loop), the group sampler with one draw per value (for
the block draws), the phased Pauli tables with the nullity and C_P
read from all 4^n entries of them (for the unphased, column-pruned
tables), and Gaussian elimination over GF(2) lowest column first (for the
conjugation solve on the XOR basis). Plus two textbook states and a
group's generator as a Pauli string.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from chiralkit import chirality as ch
from chiralkit import stabilizer as st
from chiralkit import _pauli
from chiralkit._pauli import qubit_vector
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


def _mpmath_measure(data, dims, dps, form):
    """i Tr(rho X) at dps digits for the X = form(comm, K_AB, K_A (x) I,
    I (x) K_B) of a full-rank state on dims = (d_A, d_B) split [0]|[1], each
    K the -log of its matrix from mpmath's Hermitian eigendecomposition."""
    import mpmath

    da, db = dims
    d = da * db
    with mpmath.workdps(dps):
        rho = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in data])
        rho = (rho + rho.H) / 2

        def minus_log(m):
            e, q = mpmath.eighe(m)
            return -(q * mpmath.diag([mpmath.log(x) for x in e]) * q.H)

        rho_a, rho_b = mpmath.matrix(da, da), mpmath.matrix(db, db)
        for i in range(d):
            for j in range(d):
                (ia, ib), (ja, jb) = divmod(i, db), divmod(j, db)
                if ib == jb:
                    rho_a[ia, ja] += rho[i, j]
                if ia == ja:
                    rho_b[ib, jb] += rho[i, j]
        k_a, k_b = minus_log(rho_a), minus_log(rho_b)
        ka, kb = mpmath.zeros(d, d), mpmath.zeros(d, d)
        for i in range(d):
            for j in range(d):
                (ia, ib), (ja, jb) = divmod(i, db), divmod(j, db)
                if ib == jb:
                    ka[i, j] = k_a[ia, ja]
                if ia == ja:
                    kb[i, j] = k_b[ib, jb]
        x = rho * form(lambda x, y: x * y - y * x, minus_log(rho), ka, kb)
        return float((1j * sum(x[i, i] for i in range(d))).real)


def mpmath_j2(data, dims=(2, 2), dps=50):
    """i Tr(rho {[K_AB, K_A], K_B}) at dps digits (_mpmath_measure)."""
    return _mpmath_measure(data, dims, dps, lambda c, k_ab, ka, kb: c(k_ab, ka) * kb + kb * c(k_ab, ka))


def mpmath_j3(data, dims=(2, 2), dps=50):
    """i Tr(rho [[K_AB, [K_AB, K_A]], K_B]) at dps digits (_mpmath_measure)."""
    return _mpmath_measure(data, dims, dps, lambda c, k_ab, ka, kb: c(c(k_ab, c(k_ab, ka)), kb))


def mpmath_j3_prime(data, dims=(2, 2), dps=50):
    """i Tr(rho [[[K_AB, K_B], K_B], K_B]) at dps digits (_mpmath_measure)."""
    return _mpmath_measure(data, dims, dps, lambda c, k_ab, ka, kb: c(c(c(k_ab, kb), kb), kb))


def unpruned_stabilizer_fidelity(psi, n):
    """stabilizer_fidelity with every support of every block in its GEMM,
    k = 0 first: the value the bound-pruned loop must give bit for bit."""
    bra = qubit_vector(psi, n).conj()
    largest = 0.0
    for k in range(n + 1):
        signed = bra[st._support_index(n, k)][:, None, :] * st._sign_block(k)
        overlaps = signed.reshape(-1, 1 << k) @ st._z4_block(k)
        largest = max(largest, float(np.max(np.abs(overlaps))))
    return largest**2


def scalar_stabilizer_group(n, rng, k=None):
    """random_stabilizer_group with one rng.integers call per value: z, then
    x, per candidate, a candidate kept when it commutes with every kept row
    and raises the GF(2) rank, then k sign bits in one call. The group goes
    through the public, validating constructor."""
    if k is None:
        k = int(rng.integers(0, n + 1))
    rows = []
    while len(rows) < k:
        z = int(rng.integers(0, 1 << n))
        x = int(rng.integers(0, 1 << n))
        commutes = all(((z & xi).bit_count() + (x & zi).bit_count()) % 2 == 0 for zi, xi in rows)
        if commutes and st.f2_rank([zi | xi << n for zi, xi in rows] + [z | x << n], 2 * n) == len(rows) + 1:
            rows.append((z, x))
    signs = tuple(int(b) for b in rng.integers(0, 2, size=k))
    return st.StabilizerGroup(n, tuple(z for z, _ in rows), tuple(x for _, x in rows), signs)


@lru_cache(maxsize=None)
def i_power_table(n):
    """i^{|z & x|} over every [z, x]: the phase of P(z, x) = i^{|z & x|} X^x Z^z."""
    idx = np.arange(1 << n, dtype=np.uint64)
    ny = np.bitwise_count(idx[:, None] & idx[None, :])
    return 1j ** (ny % 4)


def phased_table(psi, n, conjugate_bra):
    """<psi|P(z,x)|psi> (or <psi*|P(z,x)|psi>) over every [z, x], the phase
    applied: one gather, one GEMM over all 4^n entries, then i^{|z & x|}."""
    psi = qubit_vector(psi, n)
    bra = (psi.conj() if conjugate_bra else psi).take(_pauli._xor_index(n))
    bra *= psi[:, None]
    out = (_pauli._walsh_hadamard(n) @ bra.view(np.float64)).view(complex)
    out *= i_power_table(n)
    return out


def unpruned_nullity(psi, n):
    """stabilizer_nullity counted over the whole phased table of all 4^n
    expectations: the count, and the error, the pruned table must give."""
    count = int(np.sum(np.abs(phased_table(psi, n, True)) > 1.0 - st.NULLITY_TOL))
    k = count.bit_length() - 1
    if count != 1 << k:
        raise ValueError(
            f"{count} strings have |expectation| within {st.NULLITY_TOL:.1e} of 1; "
            "not a power of two, so the tolerance split a borderline group"
        )
    return n - k


def phased_pauli_log_distance(psi, n):
    """(C_P, (z, x)) read from the phased table of <psi*|P|psi>: the value
    and the first argmax string the unphased table must give."""
    table = np.abs(phased_table(psi, n, False)) ** 2
    z, x = np.unravel_index(int(np.argmax(table)), table.shape)
    best = float(table[z, x])
    return max(0.0, -float(np.log(max(best, 1e-300)))), (int(z), int(x))


def generator(group, i):
    """Generator i of a stabilizer group as a phase-free Pauli string."""
    return st.PauliString._from_rows(group.z_rows[i], group.x_rows[i], group.n)


class F2Solution(NamedTuple):
    feasible: bool
    solution: int | None
    nullspace: tuple[int, ...]
    rank: int


def f2_solve(rows, rhs, ncols):
    """Gaussian elimination of M v = b over GF(2) (bit c of a row = column
    c) to reduced row echelon form, pivots taken lowest column first.

    Returns one particular solution (free variables set to 0) plus a basis of
    the nullspace, one vector per free column in ascending order, or an
    infeasible marker when a zero row meets rhs 1."""
    rows, rhs = list(rows), list(rhs)
    pivots = []
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rhs[r], rhs[hit] = rhs[hit], rhs[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
                rhs[i] ^= rhs[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if any(rows[i] == 0 and rhs[i] for i in range(r, len(rows))):
        return F2Solution(False, None, (), r)
    solution = sum(1 << col for i, col in enumerate(pivots) if rhs[i])
    nullspace = []
    for f in (c for c in range(ncols) if c not in pivots):
        nullspace.append((1 << f) | sum(1 << col for i, col in enumerate(pivots) if (rows[i] >> f) & 1))
    return F2Solution(True, solution, tuple(nullspace), r)


def conjugation_oracle(group):
    """(base, nullspace) of the conjugation system solved by f2_solve, each
    string as (z, x) row ints: unknowns v = v_X | v_Z << n, row i
    z_i | x_i << n, right-hand side |z_i & x_i| mod 2."""
    n = group.n
    rows = [z | x << n for z, x in zip(group.z_rows, group.x_rows)]
    rhs = [(z & x).bit_count() % 2 for z, x in zip(group.z_rows, group.x_rows)]
    sol = f2_solve(rows, rhs, 2 * n)
    low = (1 << n) - 1
    return (sol.solution >> n, sol.solution & low), [(v >> n, v & low) for v in sol.nullspace]
