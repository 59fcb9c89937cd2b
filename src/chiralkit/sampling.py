"""Seedable random ensembles: Haar unitaries, flat-simplex spectra, mixed
states, and the counter-based stream splitting that keeps parallel Monte
Carlo runs reproducible regardless of worker count."""

from __future__ import annotations

import numpy as np

from .qmat import DensityMatrix, dagger

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """splitmix64-style mix of (master_seed, index) into one 64-bit stream key.

    Pure arithmetic on the pair, so draws for sample `index` never depend on
    execution order or worker count.
    """
    z = (int(master_seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    for _ in range(2):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


def split_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample generator (Philox keyed by the derived seed)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(master_seed, index)))


def _rekeyed_streams(master_seed: int, indices):
    """For each index in turn, a generator that draws what
    split_rng(master_seed, index) would draw, valid until the next one is
    yielded. One Philox is re-keyed per stream, which gives the same bits as
    a new generator per stream at a quarter of the cost."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0 and an empty buffer
    for index in indices:
        fresh["state"]["key"] = np.array([derive_seed(master_seed, index), 0], dtype=np.uint64)
        bitgen.state = fresh
        yield gen


def split_normals(master_seed: int, indices, size: int) -> np.ndarray:
    """(len(indices), size): row k holds the first size standard normals of
    split_rng(master_seed, indices[k]), each drawn by one standard_normal
    call on a re-keyed stream."""
    out = np.empty((len(indices), size))
    for row, gen in zip(out, _rekeyed_streams(master_seed, indices)):
        gen.standard_normal(out=row)
    return out


def _complex_normal(z: np.ndarray) -> np.ndarray:
    """(..., d, d) Ginibre entries from (..., 2, d, d) real normals, the
    real parts drawn first."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def _rephased_q(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the R diagonal rephased to unit modulus, member by
    member on a (..., d, d) stack."""
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / abs(diag))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the R diagonal
    rephased to unit modulus."""
    return _rephased_q(_complex_normal(rng.standard_normal((2, d, d))))


def haar_unitaries(dims, master_seed: int, indices) -> list[np.ndarray]:
    """For each d in dims, the (N, d, d) stack of the Haar unitaries that the
    N streams split_rng(master_seed, i), i in indices, give when each draws
    haar_unitary(d, .) for every d in dims in turn: one standard_normal call
    per stream (split_normals) and one QR per d."""
    sizes = [2 * d * d for d in dims]
    normals = split_normals(master_seed, indices, sum(sizes))
    bounds = np.cumsum([0] + sizes)
    return [
        _rephased_q(_complex_normal(normals[:, lo:hi].reshape(-1, 2, d, d)))
        for d, lo, hi in zip(dims, bounds[:-1], bounds[1:])
    ]


def simplex_point(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point of the probability simplex via normalized exponentials."""
    e = rng.exponential(size=d)
    return e / e.sum()


def _mixed_state(dims, p: np.ndarray, z: np.ndarray) -> DensityMatrix:
    """U diag(p) U† with U the rephased Q of the Ginibre matrices made from
    the real normals z, member by member on stacks: a state by construction."""
    u = _rephased_q(_complex_normal(z))
    return DensityMatrix._derived(dims, (u * p[..., None, :]) @ dagger(u))


def random_mixed_state(dims, rng: np.random.Generator) -> DensityMatrix:
    """U diag(p) U† with U Haar and p a flat-simplex spectrum, p drawn
    first."""
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    p = simplex_point(d, rng)
    return _mixed_state(dims, p, rng.standard_normal((2, d, d)))


def random_mixed_states(dims, master_seed: int, indices) -> DensityMatrix:
    """The stack of the states random_mixed_state(dims, .) gives on the
    streams split_rng(master_seed, i), i in indices: each stream draws its
    exponentials and normals on a re-keyed Philox, and the QR, the rephasing
    and the products run once on the whole stack."""
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    e, z = np.empty((len(indices), d)), np.empty((len(indices), 2, d, d))
    for ek, zk, gen in zip(e, z, _rekeyed_streams(master_seed, indices)):
        gen.standard_exponential(out=ek)
        gen.standard_normal(out=zk)
    return _mixed_state(dims, e / e.sum(axis=-1, keepdims=True), z)


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


MAXIMALLY_MIXED_MIN_EIG = 1e-3  # smallest eigenvalue random_two_qubit_maximally_mixed accepts


def random_two_qubit_maximally_mixed(rng: np.random.Generator) -> DensityMatrix:
    """Random two-qubit state with both marginals exactly I/2: a uniform
    correlation matrix on sigma_i (x) sigma_j, rejection-sampled for
    positivity with margin MAXIMALLY_MIXED_MIN_EIG (its only check)."""
    eye = np.eye(4, dtype=complex) / 4.0
    while True:
        b = rng.uniform(-1.0, 1.0, size=(3, 3))
        data = eye.copy()
        for i in range(3):
            for j in range(3):
                data += (b[i, j] / 8.0) * np.kron(_PAULIS[i], _PAULIS[j])
        if np.linalg.eigvalsh(data)[0] > MAXIMALLY_MIXED_MIN_EIG:
            return DensityMatrix._derived((2, 2), data)
